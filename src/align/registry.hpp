// String-keyed registry of batch-alignment backends.
//
// Every execution backend (CPU baseline, SIMD CPU, PIM, the hybrid
// dispatcher) registers a factory under a stable name; examples, benches
// and the read mapper construct backends by that name, which is what a
// common `--backend=` flag resolves against, and either run them directly
// or hand them to AlignService to drive. Every backend the registry builds
// is fully simulated and returns a result for every pair. The built-in
// backends are registered on first use of backend_registry():
//
//   cpu       multi-threaded host WFA, roofline-projected
//   cpu-simd  host WFA through the SIMD layer, bit-identical to cpu
//   pim       simulated PIM system (scatter / kernel / gather); the
//             BatchOptions flags pim_packed and pim_pipeline(_chunks)
//             select packed transfers and chunked stage overlap
//   hybrid    throughput-proportional CPU+PIM split
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/batch.hpp"

namespace pimwfa::align {

using BackendFactory =
    std::function<std::unique_ptr<BatchAligner>(const BatchOptions&)>;

class BackendRegistry {
 public:
  // Registers `factory` under `name`; throws InvalidArgument on a
  // duplicate name. `description` is a one-liner for help output.
  void add(const std::string& name, const std::string& description,
           BackendFactory factory);

  // Constructs a backend; throws InvalidArgument for an unknown name
  // (the message lists the registered names).
  std::unique_ptr<BatchAligner> create(const std::string& name,
                                       const BatchOptions& options) const;

  bool contains(const std::string& name) const;
  // Registered names in registration order (built-ins first).
  std::vector<std::string> names() const;
  // The names comma-joined, for error messages.
  std::string joined_names() const;
  // "name - description" lines for --help output.
  std::string describe() const;

 private:
  struct Entry {
    std::string name;
    std::string description;
    BackendFactory factory;
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

// The process-wide registry, with the built-in backends registered.
BackendRegistry& backend_registry();

namespace detail {
// Defined in backends.cpp (the one align/ file that knows the concrete
// backend types); called once by backend_registry().
void register_builtin_backends(BackendRegistry& registry);
}  // namespace detail

}  // namespace pimwfa::align
