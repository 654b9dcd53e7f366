#include "trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "util/error.hpp"

namespace perfbench {

FrameRecorder::FrameRecorder(TraceClock::time_point epoch, int client,
                             std::int64_t frame_id)
    : epoch_(epoch) {
  spans_.client = client;
  spans_.frame_id = frame_id;
  spans_.start_ns = now_ns();
}

std::int64_t FrameRecorder::now_ns() const { return to_ns(TraceClock::now() - epoch_); }

void FrameRecorder::begin(Row row) {
  const std::int64_t now = now_ns();
  if (open_ >= 0) {
    spans_.row_ns[static_cast<std::size_t>(open_)] = now - open_start_ns_;
  }
  spans_.row_start_ns[static_cast<std::size_t>(row)] = now;
  open_ = row;
  open_start_ns_ = now;
}

void FrameRecorder::end() {
  if (open_ < 0) return;
  spans_.row_ns[static_cast<std::size_t>(open_)] = now_ns() - open_start_ns_;
  open_ = -1;
}

void FrameRecorder::put(Row row, std::int64_t start_ns, std::int64_t ns) {
  spans_.row_start_ns[static_cast<std::size_t>(row)] = start_ns;
  spans_.row_ns[static_cast<std::size_t>(row)] = ns;
}

FrameSpans FrameRecorder::finish() {
  end();
  spans_.total_ns = now_ns() - spans_.start_ns;
  return spans_;
}

namespace {

/// Nanoseconds as microseconds with all nine digits: exact in decimal, so
/// a parser re-adding the rows reproduces the integer sums.
void put_us(std::FILE* out, std::int64_t ns) {
  const char* sign = ns < 0 ? "-" : "";
  const std::int64_t a = ns < 0 ? -ns : ns;
  std::fprintf(out, "%s%" PRId64 ".%03" PRId64, sign, a / 1000, a % 1000);
}

}  // namespace

void write_chrome_trace(const std::string& path, const std::vector<FrameSpans>& frames,
                        const std::string& metadata_json) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) throw dcsn::util::Error("cannot write trace file " + path);
  std::FILE* out = file.get();
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"metadata\":%s,\"traceEvents\":[\n",
               metadata_json.c_str());
  bool first = true;
  const auto event = [&](const char* name, int tid, std::int64_t start,
                         std::int64_t dur, std::int64_t frame, const std::int64_t* residual) {
    std::fprintf(out, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":",
                 first ? "" : ",\n", name, tid);
    put_us(out, start);
    std::fprintf(out, ",\"dur\":");
    put_us(out, dur);
    std::fprintf(out, ",\"args\":{\"frame\":%" PRId64, frame);
    if (residual != nullptr) {
      std::fprintf(out, ",\"residual_us\":");
      put_us(out, *residual);
    }
    std::fprintf(out, "}}");
    first = false;
  };
  for (const FrameSpans& f : frames) {
    const std::int64_t residual = f.residual_ns();
    event("frame", f.client, f.start_ns, f.total_ns, f.frame_id, &residual);
    for (int r = 0; r < kRowCount; ++r) {
      const auto i = static_cast<std::size_t>(r);
      event(kRowNames[i], f.client, f.row_start_ns[i], f.row_ns[i], f.frame_id, nullptr);
    }
  }
  std::fprintf(out, "\n]}\n");
  if (std::ferror(out) != 0) throw dcsn::util::Error("error writing trace file " + path);
}

}  // namespace perfbench
