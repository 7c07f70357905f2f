/**
 * @file
 * MGW1 wire-codec microbenchmark: zero-copy framing (beginFrame /
 * encodeInto / endFrame into one reusable buffer) against the
 * allocate-per-frame encode path, and offset-based frame extraction
 * (takeFrameInto) against the erase-per-frame takeFrame.
 *
 * Host wall time only -- the wire bytes are proven identical first,
 * so nothing observable changes. The JSON artifact gates the
 * host-independent speedup *ratios* (names carry "ratio"); raw host
 * timings carry "host" in their labels so the checker skips them.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "common/rng.hh"
#include "net/wire.hh"
#include "support/benchutil.hh"

using namespace mintcb;
using namespace mintcb::net;

namespace
{

/** Host milliseconds per call, averaged over @p iters calls. */
template <typename F>
double
hostMsPerCall(F &&fn, int iters)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           iters;
}

/** Best (minimum) of @p reps timing runs -- robust against CI noise. */
template <typename F>
double
bestHostMs(F &&fn, int iters, int reps = 3)
{
    double best = hostMsPerCall(fn, iters);
    for (int r = 1; r < reps; ++r)
        best = std::min(best, hostMsPerCall(fn, iters));
    return best;
}

/** A representative submit batch: mixed payload sizes, realistic
 *  metadata. */
std::vector<WireRequest>
makeBatch(std::size_t n)
{
    Rng rng(0x31415926);
    std::vector<WireRequest> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
        WireRequest &r = batch[i];
        r.sequence = i + 1;
        r.affinity = i % 4;
        r.priority = static_cast<std::int32_t>(i % 3);
        r.wantQuote = (i % 2) == 0;
        r.dataPages = 1 + static_cast<std::uint32_t>(i % 8);
        r.palName = "bench-pal";
        r.backend = (i % 2) ? "" : "sea";
        r.input = rng.bytes(64 + (i % 7) * 256);
    }
    return batch;
}

/** Allocate-per-frame encode: the pre-zero-copy client/gateway path. */
Bytes
encodeBatchAlloc(const std::vector<WireRequest> &batch)
{
    Bytes wire;
    for (const WireRequest &r : batch) {
        const Bytes frame =
            encodeFrame({FrameType::submit, encode(r)});
        wire.insert(wire.end(), frame.begin(), frame.end());
    }
    return wire;
}

/** Zero-copy encode into a caller-owned reusable buffer. */
void
encodeBatchZeroCopy(const std::vector<WireRequest> &batch, Bytes &wire)
{
    wire.clear();
    for (const WireRequest &r : batch) {
        const std::size_t at = beginFrame(FrameType::submit, wire);
        encodeInto(r, wire);
        endFrame(wire, at);
    }
}

void
encodeSection()
{
    benchutil::heading(
        "MGW1 encode: zero-copy framing vs allocate-per-frame");

    const std::vector<WireRequest> batch = makeBatch(256);
    const Bytes alloc_wire = encodeBatchAlloc(batch);
    Bytes zc_wire;
    encodeBatchZeroCopy(batch, zc_wire);
    benchutil::check("zero-copy and alloc encode bytes identical",
                     alloc_wire == zc_wire);

    // Warm the reusable buffer once, then measure steady state -- the
    // reactor's situation, where tx capacity survives across passes.
    Bytes reused;
    encodeBatchZeroCopy(batch, reused);
    const double alloc_ms = bestHostMs(
        [&] { benchmark::DoNotOptimize(encodeBatchAlloc(batch)); }, 50);
    const double zc_ms = bestHostMs(
        [&] {
            encodeBatchZeroCopy(batch, reused);
            benchmark::DoNotOptimize(reused.data());
        },
        50);
    const double ratio = alloc_ms / zc_ms;

    benchutil::rowSimOnly("encode 256 frames, alloc (host ms)", alloc_ms,
                          "ms");
    benchutil::rowSimOnly("encode 256 frames, zero-copy (host ms)",
                          zc_ms, "ms");
    benchutil::rowSimOnly("zero-copy encode speedup (host-independent)",
                          ratio, "x");
    benchutil::check("zero-copy encode at least 1.2x alloc encode",
                     ratio >= 1.2);
    // Gated (one-sided) in CI: the committed baseline floors this at
    // the guaranteed 1.5x. Name must carry "ratio" and avoid host/wall.
    benchutil::counterDelta("ratio_wire_zero_copy_encode", ratio);
    benchutil::counterDelta("host_ms_encode_alloc", alloc_ms);
    benchutil::counterDelta("host_ms_encode_zero_copy", zc_ms);
}

void
decodeSection()
{
    benchutil::heading(
        "MGW1 decode: offset-based takeFrameInto vs erase-per-frame");

    const std::vector<WireRequest> batch = makeBatch(256);
    Bytes wire;
    encodeBatchZeroCopy(batch, wire);

    // Equivalence: both extraction paths yield the same frame stream.
    bool same = true;
    {
        Bytes erased = wire;
        std::size_t offset = 0;
        Frame scratch;
        for (;;) {
            auto a = takeFrame(erased);
            auto b = takeFrameInto(wire, offset, scratch);
            if (!a || !b) {
                same = false;
                break;
            }
            if (!a->has_value() != !*b) {
                same = false;
                break;
            }
            if (!a->has_value())
                break;
            same &= (*a)->type == scratch.type &&
                    (*a)->payload == scratch.payload;
            if (!same)
                break;
        }
        same &= offset == wire.size();
    }
    benchutil::check("takeFrameInto and takeFrame yield identical frames",
                     same);

    const double erase_ms = bestHostMs(
        [&] {
            Bytes rx = wire;
            for (;;) {
                auto f = takeFrame(rx);
                if (!f || !f->has_value())
                    break;
                benchmark::DoNotOptimize((*f)->payload.data());
            }
        },
        10);
    Frame scratch;
    const double offset_ms = bestHostMs(
        [&] {
            std::size_t offset = 0;
            for (;;) {
                auto f = takeFrameInto(wire, offset, scratch);
                if (!f || !*f)
                    break;
                benchmark::DoNotOptimize(scratch.payload.data());
            }
        },
        10);
    const double ratio = erase_ms / offset_ms;

    benchutil::rowSimOnly("drain 256 frames, erase (host ms)", erase_ms,
                          "ms");
    benchutil::rowSimOnly("drain 256 frames, offset (host ms)",
                          offset_ms, "ms");
    benchutil::rowSimOnly("offset decode speedup (host-independent)",
                          ratio, "x");
    benchutil::check("offset decode no slower than erase decode",
                     ratio >= 1.0);
    // Informational: the erase path's cost is quadratic in queue depth,
    // so this ratio swings too wildly across hosts to gate on.
    benchutil::counterDelta("host_decode_offset_speedup", ratio);
}

void
BM_EncodeBatchAlloc(benchmark::State &state)
{
    const std::vector<WireRequest> batch = makeBatch(256);
    for (auto _ : state)
        benchmark::DoNotOptimize(encodeBatchAlloc(batch));
}

void
BM_EncodeBatchZeroCopy(benchmark::State &state)
{
    const std::vector<WireRequest> batch = makeBatch(256);
    Bytes reused;
    for (auto _ : state) {
        encodeBatchZeroCopy(batch, reused);
        benchmark::DoNotOptimize(reused.data());
    }
}

void
BM_DrainOffset(benchmark::State &state)
{
    const std::vector<WireRequest> batch = makeBatch(256);
    Bytes wire;
    encodeBatchZeroCopy(batch, wire);
    Frame scratch;
    for (auto _ : state) {
        std::size_t offset = 0;
        for (;;) {
            auto f = takeFrameInto(wire, offset, scratch);
            if (!f || !*f)
                break;
            benchmark::DoNotOptimize(scratch.payload.data());
        }
    }
}

} // namespace

BENCHMARK(BM_EncodeBatchAlloc)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EncodeBatchZeroCopy)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DrainOffset)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    benchutil::stripJsonFlag(&argc, argv);
    encodeSection();
    decodeSection();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return benchutil::writeJsonArtifact() ? 0 : 1;
}
