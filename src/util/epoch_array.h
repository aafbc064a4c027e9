// Epoch-stamped array: O(1) logical re-initialization.
//
// §IV.C "Efficient Initialization": the WC-INDEX construction runs |V|
// constrained BFS rounds, and per-round scratch state (the R vector of
// maximum qualities, BFS parents, visited marks) must not cost O(|V|) to
// reset each round or initialization dominates. The classic fix is
// to pair each slot with the epoch in which it was last written; bumping the
// epoch invalidates every slot at once. (The builder's cover tables reset
// through the slots they set instead.)

#ifndef WCSD_UTIL_EPOCH_ARRAY_H_
#define WCSD_UTIL_EPOCH_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wcsd {

/// Fixed-size array of T whose contents can be reset in O(1) by advancing an
/// epoch counter. Reads of slots not written in the current epoch return the
/// configured default value.
template <typename T>
class EpochArray {
 public:
  EpochArray() = default;

  /// Creates an array of `size` slots, all logically equal to `default_value`.
  explicit EpochArray(size_t size, T default_value = T())
      : values_(size, default_value),
        epochs_(size, 0),
        default_(default_value) {}

  /// Re-dimensions the array (destroys contents).
  void Reset(size_t size, T default_value = T()) {
    values_.assign(size, default_value);
    epochs_.assign(size, 0);
    default_ = default_value;
    epoch_ = 1;
  }

  /// Logically resets every slot to the default value. O(1) except for the
  /// rare epoch-counter wrap, which forces a physical clear.
  void Clear() {
    if (++epoch_ == 0) {
      std::fill(epochs_.begin(), epochs_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Returns the value at `i` (default if not written this epoch).
  T Get(size_t i) const {
    return epochs_[i] == epoch_ ? values_[i] : default_;
  }

  /// Writes `value` at `i` within the current epoch.
  void Set(size_t i, T value) {
    values_[i] = value;
    epochs_[i] = epoch_;
  }

  /// True if slot `i` was written in the current epoch.
  bool Contains(size_t i) const { return epochs_[i] == epoch_; }

  size_t size() const { return values_.size(); }

 private:
  std::vector<T> values_;
  std::vector<uint32_t> epochs_;
  T default_{};
  uint32_t epoch_ = 1;
};

}  // namespace wcsd

#endif  // WCSD_UTIL_EPOCH_ARRAY_H_
