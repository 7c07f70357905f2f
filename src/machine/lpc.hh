/**
 * @file
 * Low Pin Count bus model.
 *
 * The TPM hangs off the LPC bus (Figure 1), whose maximum bandwidth is
 * 16.67 MB/s -- "the fastest possible transfer of 64 KB is 3.8 ms"
 * (Section 4.3.1). Measured transfer on the TPM-less Tyan n3600R is
 * 8.82 ms for 64 KB (protocol overhead roughly halves the raw rate);
 * that effective per-byte cost is what this model charges. TPM-induced
 * long wait cycles are charged separately by the TPM's timing profile.
 */

#ifndef MINTCB_MACHINE_LPC_HH
#define MINTCB_MACHINE_LPC_HH

#include <cstdint>

#include "common/observers.hh"
#include "common/simtime.hh"

namespace mintcb::machine
{

/**
 * Observer of every bus transfer. The obs layer's telemetry session
 * implements this to attribute simulated time to LPC traffic; the bus
 * itself never behaves differently with observers attached.
 */
class LpcObserver
{
  public:
    virtual ~LpcObserver() = default;
    /** @p bytes moved during [@p start, @p start + @p cost) on the
     *  charged clock. */
    virtual void onTransfer(std::uint64_t bytes, TimePoint start,
                            Duration cost) = 0;
};

/** The LPC bus connecting the south bridge / TPM. */
class LpcBus
{
  public:
    /** Effective cost per transferred byte (protocol included). */
    explicit LpcBus(Duration per_byte) : perByte_(per_byte) {}

    /** Calibrated from the Tyan n3600R row of Table 1:
     *  8.82 ms / 64 KB = 134.58 ns per byte. */
    static LpcBus
    calibrated()
    {
        return LpcBus(Duration::nanos(8.82e6 / 65536.0));
    }

    Duration perByte() const { return perByte_; }

    /** Simulated time to move @p bytes across the bus. */
    Duration
    transferTime(std::uint64_t bytes) const
    {
        return perByte_ * static_cast<double>(bytes);
    }

    /** Charge a transfer of @p bytes to @p clock. */
    void
    transfer(std::uint64_t bytes, Timeline &clock) const
    {
        const TimePoint start = clock.now();
        const Duration cost = transferTime(bytes);
        clock.advance(cost);
        for (LpcObserver *obs : observers_)
            obs->onTransfer(bytes, start, cost);
    }

    /** Watchers of every bus transfer. */
    ObserverList<LpcObserver> &transferObservers() { return observers_; }

    /** Cumulative bytes moved (test observability). */
    std::uint64_t bytesMoved() const { return bytesMoved_; }

    /** transfer() + accounting, for callers that track traffic. */
    void
    transferTracked(std::uint64_t bytes, Timeline &clock)
    {
        transfer(bytes, clock);
        bytesMoved_ += bytes;
    }

  private:
    Duration perByte_;
    std::uint64_t bytesMoved_ = 0;
    ObserverList<LpcObserver> observers_;
};

} // namespace mintcb::machine

#endif // MINTCB_MACHINE_LPC_HH
