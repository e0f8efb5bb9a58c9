// Stream alignment requests through align::AlignService.
//
// Where pim_batch_align materializes a whole ReadPairSet up front, this
// example ingests its input incrementally - FASTA, FASTQ or WFA ".seq"
// through the seq chunk readers - and feeds small requests into a
// long-lived AlignService, which forms engine-sized batches behind the
// scenes, recycles a bounded ring of arenas, and resolves one future per
// request. Resident pair storage is bounded by the service watermarks no
// matter how large the input file is.
//
// FASTA/FASTQ inputs pair consecutive records: record 2i is the pattern,
// record 2i+1 the text. Without --input a synthetic fig1-shaped ".seq"
// stream is generated in memory.
//
//   ./stream_align
//   ./stream_align --input reads.fastq --backend=hybrid
//   ./stream_align --pairs 20000 --request 32 --batch-pairs 2048
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "align/cli.hpp"
#include "align/registry.hpp"
#include "align/service.hpp"
#include "common/strings.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"

namespace {

using namespace pimwfa;

// (handle index, the request's pairs) retained for verification.
struct Sample {
  usize handle = 0;
  std::vector<seq::ReadPair> pairs;
};

std::string detect_format(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".fa") || ends_with(".fasta")) return "fasta";
  if (ends_with(".fq") || ends_with(".fastq")) return "fastq";
  if (ends_with(".seq")) return "seq";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.set_description(
      "Stream alignment requests through the bounded-memory AlignService "
      "from a FASTA/FASTQ/.seq source");
  align::BatchFlags defaults;
  defaults.pairs = 4096;
  align::BatchFlags flags;
  std::string input;
  std::string format;
  usize chunk = 0;
  usize request_pairs = 0;
  usize batch_pairs = 0;
  i64 batch_delay_ms = 0;
  usize queue_pairs = 0;
  try {
    flags = align::parse_batch_flags(cli, defaults);
    input = cli.get_string(
        "input", "", "FASTA/FASTQ/.seq file (default: synthetic in-memory "
        ".seq stream shaped by --pairs/--read-length/--error-rate)");
    format = cli.get_string("format", "auto", "auto | fasta | fastq | seq");
    chunk = static_cast<usize>(
        cli.get_int("chunk", 256, "records parsed per ingest chunk"));
    request_pairs = static_cast<usize>(
        cli.get_int("request", 64, "pairs per service request"));
    batch_pairs = static_cast<usize>(
        cli.get_int("batch-pairs", 1024, "service batch-size watermark"));
    batch_delay_ms = cli.get_int(
        "batch-delay-ms", 2, "service batch-latency watermark");
    queue_pairs = static_cast<usize>(cli.get_int(
        "queue-pairs", 4096, "admission high-watermark (backpressure)"));
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed flag (and a parse error must not
    // escape main as an uncaught exception).
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "stream_align: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  if (chunk == 0 || request_pairs == 0) {
    std::cerr << "stream_align: --chunk and --request must be positive\n";
    return 2;
  }

  // --- input source -------------------------------------------------------
  std::ifstream file;
  std::istringstream memory;
  std::istream* is = nullptr;
  if (input.empty()) {
    // Synthetic source: serialize a fig1-shaped dataset to an in-memory
    // ".seq" stream and forget the owning set - everything downstream
    // sees only the stream.
    std::ostringstream serialized;
    seq::write_seq_pairs(
        serialized,
        seq::fig1_dataset(flags.pairs, flags.error_rate, flags.seed));
    memory.str(serialized.str());
    is = &memory;
    format = "seq";
  } else {
    if (format == "auto") format = detect_format(input);
    if (format.empty()) {
      std::cerr << "stream_align: cannot infer --format from '" << input
                << "'\n";
      return 2;
    }
    file.open(input);
    if (!file) {
      std::cerr << "stream_align: cannot open '" << input << "'\n";
      return 2;
    }
    is = &file;
  }
  if (format != "fasta" && format != "fastq" && format != "seq") {
    std::cerr << "stream_align: unknown format '" << format << "'\n";
    return 2;
  }

  // --- service ------------------------------------------------------------
  align::ServiceOptions service_options;
  service_options.scope = flags.scope();
  service_options.max_batch_pairs = batch_pairs;
  service_options.max_batch_delay = std::chrono::milliseconds(batch_delay_ms);
  service_options.max_queued_pairs = queue_pairs;
  std::unique_ptr<align::AlignService> service;
  try {
    // The backend and the service validate their options here; a rejected
    // value is a usage error like a malformed flag.
    service = std::make_unique<align::AlignService>(
        align::backend_registry().create(flags.backend, flags.options),
        service_options);
  } catch (const Error& error) {
    std::cerr << "stream_align: " << error.what() << "\n";
    return 2;
  }

  std::cout << "Streaming " << (input.empty() ? "<synthetic>" : input)
            << " (" << format << ") through AlignService [backend="
            << flags.backend << ", request=" << request_pairs
            << " pairs, batch<=" << batch_pairs << " pairs or "
            << batch_delay_ms << "ms, queue<=" << queue_pairs
            << " pairs]\n";

  // --- ingest -------------------------------------------------------------
  std::vector<align::RequestHandle> handles;
  std::vector<Sample> samples;
  std::vector<seq::ReadPair> request;
  request.reserve(request_pairs);
  usize ingested_pairs = 0;
  const usize sample_stride = 17;  // verify every 17th request end to end

  const auto submit = [&] {
    if (request.empty()) return;
    if (handles.size() % sample_stride == 0) {
      samples.push_back({handles.size(), request});
    }
    ingested_pairs += request.size();
    // submit_wait blocks here when the service is at its watermark:
    // ingest stalls instead of growing resident memory.
    handles.push_back(service->submit_wait(std::move(request)));
    request.clear();
    request.reserve(request_pairs);
  };
  const auto add_pair = [&](seq::ReadPair pair) {
    request.push_back(std::move(pair));
    if (request.size() >= request_pairs) submit();
  };

  try {
    if (format == "seq") {
      seq::SeqPairChunkReader reader(*is);
      std::vector<seq::ReadPair> pairs;
      while (reader.next(pairs, chunk) > 0) {
        for (auto& pair : pairs) add_pair(std::move(pair));
        pairs.clear();
      }
    } else if (format == "fasta") {
      seq::FastaChunkReader reader(*is);
      std::vector<seq::FastaRecord> records;  // leftover carries over
      while (reader.next(records, chunk) > 0) {
        usize i = 0;
        for (; i + 1 < records.size(); i += 2) {
          add_pair({std::move(records[i].sequence),
                    std::move(records[i + 1].sequence)});
        }
        if (i < records.size()) {
          records.front() = std::move(records[i]);
          records.resize(1);
        } else {
          records.clear();
        }
      }
      if (!records.empty()) {
        std::cerr << "stream_align: odd record count - dropping unpaired "
                     "record '"
                  << records.front().name << "'\n";
      }
    } else {
      seq::FastqChunkReader reader(*is);
      std::vector<seq::FastqRecord> records;
      while (reader.next(records, chunk) > 0) {
        usize i = 0;
        for (; i + 1 < records.size(); i += 2) {
          add_pair({std::move(records[i].sequence),
                    std::move(records[i + 1].sequence)});
        }
        if (i < records.size()) {
          records.front() = std::move(records[i]);
          records.resize(1);
        } else {
          records.clear();
        }
      }
      if (!records.empty()) {
        std::cerr << "stream_align: odd record count - dropping unpaired "
                     "record '"
                  << records.front().name << "'\n";
      }
    }
  } catch (const Error& e) {
    std::cerr << "stream_align: " << e.what() << "\n";
    return 1;
  }
  submit();  // the partial tail request
  service->flush();

  // --- gather -------------------------------------------------------------
  usize resolved_pairs = 0;
  i64 score_sum = 0;
  std::vector<std::vector<align::AlignmentResult>> sampled_results(
      samples.size());
  usize next_sample = 0;
  for (usize i = 0; i < handles.size(); ++i) {
    std::vector<align::AlignmentResult> results = handles[i].get();
    resolved_pairs += results.size();
    for (const auto& result : results) score_sum += result.score;
    if (next_sample < samples.size() && samples[next_sample].handle == i) {
      sampled_results[next_sample] = std::move(results);
      ++next_sample;
    }
  }
  if (resolved_pairs != ingested_pairs) {
    std::cerr << "stream_align: resolved " << resolved_pairs << " of "
              << ingested_pairs << " ingested pairs\n";
    return 1;
  }

  // --- verify the sampled requests against a direct backend run -----------
  auto reference_backend =
      align::backend_registry().create(flags.backend, flags.options);
  for (usize s = 0; s < samples.size(); ++s) {
    seq::ReadPairSet set;
    for (auto& pair : samples[s].pairs) set.add(std::move(pair));
    const align::BatchResult reference =
        reference_backend->run(set, flags.scope());
    if (reference.results != sampled_results[s]) {
      std::cerr << "stream_align: request " << samples[s].handle
                << " diverges from the direct " << flags.backend
                << " run\n";
      return 1;
    }
  }

  const align::ServiceStats stats = service->stats();
  std::cout << "  " << with_commas(resolved_pairs) << " pairs in "
            << with_commas(handles.size()) << " requests, "
            << with_commas(stats.batches) << " batches (score sum "
            << score_sum << ")\n";
  std::cout << strprintf(
      "  latency p50 %.2fms p99 %.2fms; peak queued %s pairs, peak "
      "resident %s pairs\n",
      stats.latency_p50_ms, stats.latency_p99_ms,
      with_commas(stats.peak_queued_pairs).c_str(),
      with_commas(stats.peak_resident_pairs).c_str());
  std::cout << "  verified: " << samples.size()
            << " sampled requests bit-identical to the direct backend run\n";
  return 0;
}
