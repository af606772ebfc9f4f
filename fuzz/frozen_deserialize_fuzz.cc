/// Fuzz target: FrozenTree::Deserialize on arbitrary bytes.
///
/// Deserialize is the trust boundary for persisted indexes (--load-index): it
/// must reject any corrupted or adversarial snapshot with a Status, never a
/// crash, OOM, or — worst — a silently inconsistent tree. The harness
/// reseals the FNV-1a64 trailer over bytes [0, n-8) first, so a mutated
/// input reaches field parsing and the deep check instead of stopping at the
/// checksum. On an accepting parse we re-run the deep invariant check and
/// round-trip through SerializeToString, trapping if either disagrees with
/// acceptance.

#include <cstdint>
#include <cstring>
#include <string>

#include "rst/frozen/frozen.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string bytes(reinterpret_cast<const char*>(data), size);
  if (bytes.size() >= 8) {
    const size_t tail = bytes.size() - 8;
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < tail; ++i) {
      h ^= static_cast<unsigned char>(bytes[i]);
      h *= 1099511628211ULL;
    }
    std::memcpy(&bytes[tail], &h, 8);
  }
  rst::Result<rst::frozen::FrozenTree> tree =
      rst::frozen::FrozenTree::Deserialize(bytes);
  if (!tree.ok()) return 0;
  // Accepted snapshots must be fully coherent: the invariant check is part of
  // Deserialize itself, so a failure here means acceptance and validation
  // disagree — exactly the bug class this harness exists to catch.
  const rst::Status st = tree.value().CheckInvariants();
  if (!st.ok()) __builtin_trap();
  const std::string out = tree.value().SerializeToString();
  if (out.empty()) __builtin_trap();
  return 0;
}
