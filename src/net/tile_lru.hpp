// The bounded tile LRU both ends of a connection keep in lockstep, so a
// tile the client already holds can travel as a kFrameTileRef.
//
// Two levels: the framebuffer (the hash last delivered at each wire-tile
// rect) and an LRU of tiles the framebuffer has *displaced*, keyed by the
// tile_payload_hash each one arrived with. Every tile message — full or
// reference — runs one deliver() step:
//
//   1. look the message's hash up: a hit leaves the LRU (it moves back into
//      the framebuffer) and is handed to the caller;
//   2. the tile last delivered at the rect, if any, enters the LRU as its
//      most recent entry — unless its payload alone exceeds the budget;
//   3. the least recently displaced entries are evicted until the payload
//      bytes fit the budget.
//
// The server instantiates TileLru<NoPayload> and runs deliver() at send
// time; the client instantiates TileLru<std::vector<float>> and runs it at
// receive time. Both see the same (rect, hash) sequence in stream order, so
// both make the same decisions, evictions included, without a round trip.
// This is the one copy of the admission, lookup and eviction policy. The
// framebuffer level also tells the server which tiles changed: a tile whose
// hash differs from the one shown at its rect.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dcsn::net {

/// A wire tile's pixel rect.
struct TileRect {
  std::int32_t x0 = 0;
  std::int32_t y0 = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;

  auto operator<=>(const TileRect&) const = default;

  /// Bytes of the rect's f32 pixel block: what an entry costs the budget.
  [[nodiscard]] std::size_t payload_bytes() const {
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
           sizeof(float);
  }
};

/// The server's payload: it mirrors only the keys.
struct NoPayload {};

template <typename Payload>
class TileLru {
 public:
  struct Entry {
    TileRect rect;
    Payload payload;
  };

  explicit TileLru(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// The rect of the cached tile with `hash`, or nullptr when none is held.
  [[nodiscard]] const TileRect* find(std::uint64_t hash) const {
    const auto it = index_.find(hash);
    return it == index_.end() ? nullptr : &it->second->second.rect;
  }

  /// The hash last delivered at `rect`, or nullptr before the first.
  [[nodiscard]] const std::uint64_t* shown(const TileRect& rect) const {
    const auto it = framebuffer_.find(rect);
    return it == framebuffer_.end() ? nullptr : &it->second;
  }

  /// One tile message: `hash` now occupies `rect` in the framebuffer (see
  /// the file comment). `save(Payload& buffer)` must leave in `buffer` the
  /// pixels `rect` shows before this message: the displaced tile. On a hit
  /// `buffer` arrives holding the hit's payload, which the caller puts on
  /// screen in the same pass (a swap); otherwise it is a recycled buffer of
  /// the same size, or a new one. `save` runs on every hit and whenever the
  /// displaced tile is admitted. Returns whether `hash` was held.
  template <typename Save>
  bool deliver(const TileRect& rect, std::uint64_t hash, Save&& save) {
    Payload buffer{};
    const auto held = index_.find(hash);
    const bool hit = held != index_.end();
    if (hit) {
      buffer = std::move(held->second->second.payload);
      erase(held);
    }
    const auto [slot, first] = framebuffer_.try_emplace(rect, hash);
    const std::uint64_t displaced = std::exchange(slot->second, hash);
    const std::size_t bytes = rect.payload_bytes();
    const bool admit = !first && bytes <= budget_;  // larger: never cached
    if (admit && !hit) buffer = take_spare(bytes);
    if (hit || admit) save(buffer);
    if (!admit) return hit;
    if (const auto it = index_.find(displaced); it != index_.end()) erase(it);
    order_.emplace_front(displaced, Entry{rect, std::move(buffer)});
    index_.emplace(displaced, order_.begin());
    bytes_ += bytes;
    while (bytes_ > budget_) {
      // Evicted buffers refill later admissions of their size: at steady
      // state a client allocates nothing per tile.
      if (spare_.size() == kSpares) spare_.erase(spare_.begin());
      spare_.push_back(std::move(order_.back().second));
      erase(index_.find(order_.back().first));
      ++evictions_;
    }
    return hit;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  /// Payload bytes held, never above the budget.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

 private:
  using Order = std::list<std::pair<std::uint64_t, Entry>>;  // most recent first
  using Index = std::unordered_map<std::uint64_t, typename Order::iterator>;

  void erase(typename Index::iterator it) {
    bytes_ -= it->second->second.rect.payload_bytes();
    order_.erase(it->second);
    index_.erase(it);
  }

  [[nodiscard]] Payload take_spare(std::size_t bytes) {
    const auto it = std::find_if(spare_.begin(), spare_.end(), [bytes](const Entry& e) {
      return e.rect.payload_bytes() == bytes;
    });
    if (it == spare_.end()) return Payload{};
    Payload payload = std::move(it->payload);
    spare_.erase(it);
    return payload;
  }

  static constexpr std::size_t kSpares = 8;

  std::size_t budget_;
  std::map<TileRect, std::uint64_t> framebuffer_;  ///< rect -> hash delivered there
  Order order_;
  Index index_;
  std::vector<Entry> spare_;  ///< evicted entries' buffers, oldest first
  std::size_t bytes_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace dcsn::net
