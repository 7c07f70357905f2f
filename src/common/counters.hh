/**
 * @file
 * Hardware event counters (gem5-style observability).
 *
 * Components own one of these structs and bump it as events happen;
 * machine::statsReport() renders a platform-wide summary.
 *
 * Each counter is named once: a struct's fields() table gives every
 * field its metric family, HELP text and report label. The metrics
 * bridge (obs::bridgeCounters) and the text report (renderCounters)
 * both walk that table, so neither restates a field name.
 */

#ifndef MINTCB_COMMON_COUNTERS_HH
#define MINTCB_COMMON_COUNTERS_HH

#include <cstdint>
#include <span>
#include <string>

namespace mintcb
{

/** Exposition TYPE of a counter-struct field. */
enum class CounterKind
{
    counter, //!< monotonically increasing event count
    gauge,   //!< high-water mark or other value that is set, not bumped
};

/** One row of a counter struct's field table. */
template <class S>
struct CounterField
{
    const char *metric; //!< metrics family name
    const char *help;   //!< exposition HELP text
    const char *label;  //!< key in renderCounters() text
    std::uint64_t S::*member;
    CounterKind kind = CounterKind::counter;
};

/** `label=value` for every field of @p stats, in table order, joined
 *  by single spaces. */
template <class S>
std::string
renderCounters(const S &stats)
{
    std::string out;
    for (const CounterField<S> &f : S::fields()) {
        if (!out.empty())
            out += ' ';
        out += f.label;
        out += '=';
        out += std::to_string(stats.*f.member);
    }
    return out;
}

/** Memory-controller access counters. */
struct MemCtrlStats
{
    std::uint64_t cpuReads = 0;
    std::uint64_t cpuWrites = 0;
    std::uint64_t dmaReads = 0;
    std::uint64_t dmaWrites = 0;
    std::uint64_t cpuDenials = 0; //!< ACL blocked a CPU access
    std::uint64_t dmaDenials = 0; //!< DEV or ACL blocked a DMA access
    std::uint64_t aclTransitions = 0; //!< page state changes

    static std::span<const CounterField<MemCtrlStats>> fields();
};

/** TPM command counters. */
struct TpmStats
{
    std::uint64_t extends = 0;
    std::uint64_t reads = 0;
    std::uint64_t seals = 0;
    std::uint64_t unseals = 0;
    std::uint64_t quotes = 0;
    std::uint64_t getRandoms = 0;
    std::uint64_t hashSequences = 0; //!< late-launch measurements
    std::uint64_t deniedCommands = 0; //!< locality/lock refusals

    static std::span<const CounterField<TpmStats>> fields();
};

/** TPM secure-transport traffic counters (pipelining observability).
 *  Read directly by tests; not bridged, so it has no fields() table. */
struct TransportStats
{
    std::uint64_t exchanges = 0;        //!< wrapped request/response pairs
    std::uint64_t commands = 0;         //!< tunneled commands, total
    std::uint64_t batchedCommands = 0;  //!< commands that rode in a batch
    std::uint64_t rejected = 0;         //!< MAC/replay/format refusals
    std::uint64_t sessionsAccepted = 0; //!< full RSA key exchanges
    std::uint64_t sessionsResumed = 0;  //!< ticket-based resumptions
};

} // namespace mintcb

#endif // MINTCB_COMMON_COUNTERS_HH
