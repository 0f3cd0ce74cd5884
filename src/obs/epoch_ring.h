// EpochRing: a fixed ring of time slots stamped with the epoch they hold.
//
// Time is cut into epochs of `width_us`; epoch e lives in slot
// e % num_slots. A writer stamps and zeroes a slot the first time its
// epoch comes round (under a small rotation mutex), so a slot never mixes
// two epochs, and a write older than the slot's current epoch is refused
// rather than misfiled. Readers merge the slots whose epochs fall inside a
// look-back range, under no lock.
//
// Concurrency: the steady-state write is one acquire load of the stamp;
// the caller's own relaxed adds into the slot follow. The stamp is
// release-published after the zeroing, so a writer that sees the new
// stamp never adds into pre-reset state. Shared by SlidingQuantile (a ring
// of Histograms) and SloMonitor (a ring of request-count slots).
//
// `Slot` must be default-constructible and provide Reset().

#ifndef LAYERGCN_OBS_EPOCH_RING_H_
#define LAYERGCN_OBS_EPOCH_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace layergcn::obs {

template <typename Slot>
class EpochRing {
 public:
  EpochRing(uint64_t width_us, int num_slots) : width_us_(width_us) {
    for (int i = 0; i < num_slots; ++i) {
      entries_.push_back(std::make_unique<Entry>());
    }
  }

  /// The slot of `now_us`'s epoch, zeroed on that epoch's first touch;
  /// nullptr when the slot already holds a newer epoch.
  Slot* Acquire(uint64_t now_us) {
    const uint64_t tag = now_us / width_us_ + 1;
    Entry& e = *entries_[(tag - 1) % entries_.size()];
    if (e.tag.load(std::memory_order_acquire) != tag) {
      std::lock_guard<std::mutex> lock(rotate_mu_);
      const uint64_t stamped = e.tag.load(std::memory_order_acquire);
      if (stamped > tag) return nullptr;  // too old to record
      if (stamped < tag) {
        e.slot.Reset();
        e.tag.store(tag, std::memory_order_release);
      }
    }
    return &e.slot;
  }

  /// Calls fn(slot) for every slot holding one of the `slots_back + 1`
  /// epochs that end at `now_us`'s epoch.
  template <typename Fn>
  void ForEach(uint64_t now_us, int slots_back, Fn&& fn) const {
    const uint64_t cur = now_us / width_us_ + 1;
    const uint64_t back = static_cast<uint64_t>(slots_back);
    const uint64_t oldest = cur > back ? cur - back : 1;
    for (const auto& e : entries_) {
      const uint64_t tag = e->tag.load(std::memory_order_acquire);
      if (tag >= oldest && tag <= cur) fn(e->slot);
    }
  }

  int size() const { return static_cast<int>(entries_.size()); }

 private:
  // tag = epoch + 1, so a zero-initialized entry reads as "never written".
  struct alignas(64) Entry {
    std::atomic<uint64_t> tag{0};
    Slot slot;
  };

  const uint64_t width_us_;
  std::mutex rotate_mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace layergcn::obs

#endif  // LAYERGCN_OBS_EPOCH_RING_H_
