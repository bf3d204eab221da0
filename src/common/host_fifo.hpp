// Flat host-FIFO: the word queue between the host interface and the
// ring / configuration controller.
//
// The simulator's hottest memory operation is popping one host word per
// operand route per cycle.  A std::deque pays block-map indirection and
// a branch per pop; this FIFO stores the live window in one contiguous
// std::vector and pops by bumping a cursor.  Consumed prefix storage is
// reclaimed lazily on the push side (when the fifo drains empty, or
// when the dead prefix dominates the buffer), so both push_back and
// pop_front are amortized O(1) and the pop fast path is a single
// indexed load plus an increment — what the superstep engine's fused
// cycle loop needs.
//
// Like std::deque, front()/pop_front() on an empty fifo are undefined;
// every simulator pop site is preceded by the ring's host-pop stall
// check or an explicit empty() test.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace sring {

class HostFifo {
 public:
  std::size_t size() const noexcept { return buf_.size() - head_; }
  bool empty() const noexcept { return head_ == buf_.size(); }

  Word front() const noexcept { return buf_[head_]; }

  /// Peek at the i-th live word (0 = front).
  Word at(std::size_t i) const noexcept { return buf_[head_ + i]; }

  void pop_front() noexcept { ++head_; }

  /// Pop and return the front word (the hot-path form).
  Word pop() noexcept { return buf_[head_++]; }

  /// The live words in place: front_ptr()[i] == at(i) for i < size().
  /// Valid until the next push; lets the planned engine read a whole
  /// cycle's pops by offset and then drop them with one skip().
  const Word* front_ptr() const noexcept { return buf_.data() + head_; }

  /// Pop `n` <= size() words at once.
  void skip(std::size_t n) noexcept { head_ += n; }

  void push_back(Word w) {
    reclaim();
    buf_.push_back(w);
  }

  void append(std::span<const Word> words) {
    reclaim();
    buf_.insert(buf_.end(), words.begin(), words.end());
  }

  void assign(std::initializer_list<Word> words) {
    clear();
    buf_.assign(words);
  }

  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  /// Drop the consumed prefix when it is free to do so (fifo empty) or
  /// when dead words dominate the buffer (amortized O(1) per pop).
  void reclaim() {
    if (head_ == 0) return;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= kReclaimMin && head_ >= buf_.size() - head_) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static constexpr std::size_t kReclaimMin = 1024;

  std::vector<Word> buf_;
  std::size_t head_ = 0;  // index of the front word
};

}  // namespace sring
