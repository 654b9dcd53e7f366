// Spans of the traced run, recorded by the benchmark around public calls
// into each layer (nothing inside src/ is instrumented).
//
// One traced frame is a contiguous sequence of additive rows: every row is
// one span per frame, and the rows plus a residual (the benchmark's own glue
// between spans) add up to the frame total exactly, in integer nanoseconds.
// Spans stay in memory and are written once, as Chrome trace-event JSON
// (one tid per client), when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The additive rows in frame order; names match the per-layer metrics
/// minus their unit suffix.
enum Row : int {
  kSubmitEncode,     ///< SubmitMsg::encode
  kSocketSubmit,     ///< send_message + read_message of the submit
  kSubmitDecode,     ///< SubmitMsg::decode
  kQueueWait,        ///< FrameStats::queue_wait_seconds
  kEngineFrame,      ///< FrameStats::frame_seconds
  kServiceOverhead,  ///< submit() -> future resolved, minus the two above
  kDeltaDiff,        ///< core::diff_spots
  kDeltaDirty,       ///< core::dirty_tiles on the wire grid
  kTileEncode,       ///< extract + tile hash + FrameTileMsg/Begin/End encode
  kSocketFrame,      ///< send_message + read_message of Begin, Tiles, End
  kTileDecode,       ///< decode + tile hash check + copy into the client fb
  kClientVerify,     ///< Framebuffer::content_hash of the reassembled frame
  kRowCount,
};

inline constexpr std::array<const char*, kRowCount> kRowNames = {
    "protocol.submit_encode", "socket.submit",      "protocol.submit_decode",
    "service.queue_wait",     "engine.frame",       "service.overhead",
    "delta.diff",             "delta.dirty",        "protocol.tile_encode",
    "socket.frame",           "protocol.tile_decode", "client.verify"};

using TraceClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(TraceClock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

struct FrameSpans {
  int client = 0;
  std::int64_t frame_id = 0;
  std::int64_t start_ns = 0;  ///< relative to the trace epoch
  std::int64_t total_ns = 0;
  std::array<std::int64_t, kRowCount> row_start_ns{};
  std::array<std::int64_t, kRowCount> row_ns{};

  /// total minus every row: the untimed glue between spans.
  [[nodiscard]] std::int64_t residual_ns() const {
    std::int64_t r = total_ns;
    for (const std::int64_t ns : row_ns) r -= ns;
    return r;
  }
};

/// Per-client span recorder: rows are opened back to back, so each begin()
/// closes the previous row at the same instant.
class FrameRecorder {
 public:
  FrameRecorder(TraceClock::time_point epoch, int client, std::int64_t frame_id);

  /// Starts `row` now (and ends whatever row was open).
  void begin(Row row);
  /// Ends the open row now without starting another.
  void end();
  /// Records a row measured elsewhere (FrameStats) at an explicit offset.
  void put(Row row, std::int64_t start_ns, std::int64_t ns);
  [[nodiscard]] std::int64_t now_ns() const;
  /// Closes the frame; the total runs from construction to now.
  [[nodiscard]] FrameSpans finish();

 private:
  TraceClock::time_point epoch_;
  FrameSpans spans_;
  int open_ = -1;
  std::int64_t open_start_ns_ = 0;
};

/// Writes `frames` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds with nanosecond digits). Each frame becomes one "frame"
/// event carrying its residual plus one event per row; `metadata_json` is
/// a JSON object stored under "metadata".
void write_chrome_trace(const std::string& path, const std::vector<FrameSpans>& frames,
                        const std::string& metadata_json);

}  // namespace perfbench
