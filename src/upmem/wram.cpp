#include "upmem/wram.hpp"

namespace pimwfa::upmem {

void Wram::range_fault(u64 offset, usize bytes) const {
  PIMWFA_HW_CHECK(offset <= store_.size() && bytes <= store_.size() - offset,
                  "WRAM access [" << offset << ", " << offset + bytes
                                  << ") exceeds capacity " << store_.size());
  throw Error("WRAM range fault raised for an in-range access");
}

}  // namespace pimwfa::upmem
