#include "particles/tracer.hpp"

#include <algorithm>

namespace dcsn::particles {

Streamline StreamlineTracer::trace(const field::VectorField& f, field::Vec2 seed,
                                   int steps_forward, int steps_backward) const {
  // The point k steps from the seed lands in slot back + k of a polyline
  // sized for the whole request, running upstream -> seed -> downstream;
  // the slots the march did not reach are trimmed afterwards.
  const int back = std::max(steps_backward, 0);
  const auto size = static_cast<std::size_t>(back) + 1 +
                    static_cast<std::size_t>(std::max(steps_forward, 0));
  Streamline line;
  line.points.resize(size);
  line.tangents.resize(size);
  int first = back;
  int last = back;
  march(f, std::span(&seed, 1), steps_forward, steps_backward, 1,
        [&](int, int k, field::Vec2 point, field::Vec2 tangent) {
          const int slot = back + k;
          line.points[static_cast<std::size_t>(slot)] = point;
          line.tangents[static_cast<std::size_t>(slot)] = tangent;
          first = std::min(first, slot);
          last = std::max(last, slot);
        });
  for (auto* v : {&line.points, &line.tangents}) {
    v->erase(v->begin() + last + 1, v->end());
    v->erase(v->begin(), v->begin() + first);
  }
  line.seed_index = static_cast<std::size_t>(back - first);
  return line;
}

}  // namespace dcsn::particles
