#include "common/wire.h"

namespace tre::wire {

// Out of line on purpose: inlined into a caller that writes constant-size
// fields, the vector growth below trips GCC 12's -Wstringop-overflow and
// -Warray-bounds (false positives) in the warnings-as-errors build.
Writer& Writer::raw(ByteSpan b) {
  out_.insert(out_.end(), b.begin(), b.end());
  return *this;
}

}  // namespace tre::wire
