#include "core/feedback_pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sring {

FeedbackPipeline::FeedbackPipeline(std::size_t width, std::size_t depth)
    : width_(width), depth_(depth), stages_(2 * width * depth, 0) {
  check(width > 0, "FeedbackPipeline: width must be positive");
  check(depth > 0, "FeedbackPipeline: depth must be positive");
}

Word FeedbackPipeline::read(std::size_t lane, std::size_t depth) const {
  check(lane < width_, "FeedbackPipeline::read: lane out of range");
  check(depth < depth_, "FeedbackPipeline::read: depth out of range");
  return window()[depth * width_ + lane];
}

void FeedbackPipeline::push(const std::vector<Word>& upstream_outputs) {
  check(upstream_outputs.size() == width_,
        "FeedbackPipeline::push: wrong vector width");
  push_from(upstream_outputs.data());
}

void FeedbackPipeline::reset() noexcept {
  std::fill(stages_.begin(), stages_.end(), 0);
  head_ = 0;
  pushes_ = 0;
}

}  // namespace sring
