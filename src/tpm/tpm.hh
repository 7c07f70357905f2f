/**
 * @file
 * The simulated TPM v1.2.
 *
 * Functionally real (real SHA-1 PCR chains, real RSA seal/quote crypto),
 * with vendor-calibrated latency charged to an attached virtual clock.
 * Implements exactly the command surface the paper exercises:
 * PCRRead/Extend, Seal/Unseal, Quote, GetRandom, and the locality-4
 * TPM_HASH_START / TPM_HASH_DATA / TPM_HASH_END sequence that SKINIT and
 * SENTER use during a late launch (Section 4.3.1).
 */

#ifndef MINTCB_TPM_TPM_HH
#define MINTCB_TPM_TPM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/observers.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "common/simtime.hh"
#include "common/types.hh"
#include "crypto/rsa.hh"
#include "crypto/sha1.hh"
#include "tpm/blob.hh"
#include "tpm/pcr.hh"
#include "common/counters.hh"
#include "tpm/timing.hh"

namespace mintcb::tpm
{

/**
 * Who is issuing a TPM command. The hardware locality is only reachable
 * from the CPU's late-launch microcode path; ring-0 software cannot forge
 * it (Section 2.1.3: "Only a hardware command from the CPU can reset
 * PCR 17").
 */
enum class Locality
{
    software, //!< anything the OS / a PAL issues through the driver
    hardware, //!< the CPU's SKINIT/SENTER/SLAUNCH microcode path
};

/** A TPM_Quote result: signed evidence of the selected PCR contents. */
struct TpmQuote
{
    std::vector<std::size_t> selection; //!< PCR indices quoted
    std::vector<Bytes> values;          //!< their values at quote time
    Bytes nonce;                        //!< verifier freshness nonce
    Bytes signature;                    //!< AIK signature over the payload

    /** The exact byte string the AIK signs. */
    Bytes signedPayload() const;
};

/**
 * Verify @p quote against @p aik and @p expected_nonce: recomputes the
 * composite from the reported values and checks the signature. The caller
 * still has to decide whether the *values* are trustworthy.
 *
 * Each way a quote can be bad fails with its own message (stale/wrong
 * nonce, malformed selection, signature mismatch) so a verifier can
 * report *why* an attestation was refused, not just that it was.
 */
Status verifyQuote(const crypto::RsaPublicKey &aik, const TpmQuote &quote,
                   const Bytes &expected_nonce);

/**
 * Observer of every charged TPM command. The obs layer's telemetry
 * session implements this to build TPM command spans; the chip never
 * behaves differently with observers attached.
 */
class TpmCommandObserver
{
  public:
    virtual ~TpmCommandObserver() = default;
    /**
     * One command charged. @p issued is the invoking clock before the
     * chip-busy serialization, @p start after it (the command's actual
     * start; the gap is queueing behind another CPU's command), @p end
     * when the chip finished.
     */
    virtual void onCommand(const char *op, TimePoint issued,
                           TimePoint start, TimePoint end) = 0;
};

/** Chip-NV image magic: "TNV1" (Tpm::exportNvState). */
inline constexpr std::uint32_t nvStateMagic = 0x544e5631;

/** The TPM chip model. */
class Tpm
{
  public:
    /**
     * Build a TPM of the given @p vendor. @p seed diversifies the SRK/AIK
     * (machines built from different seeds have different TPM identities).
     */
    explicit Tpm(TpmVendor vendor, std::uint64_t seed = 0);

    /** Charge future op latencies to @p clock (the platform timeline). */
    void attachClock(Timeline *clock) { clock_ = clock; }

    /** Replace the timing profile (used by the TPM-speed ablation). */
    void setProfile(const TpmTimingProfile &p) { profile_ = p; }
    const TpmTimingProfile &profile() const { return profile_; }
    TpmVendor vendor() const { return profile_.vendor; }

    /** Platform power cycle: PCR bank reset, lock cleared, buffer wiped. */
    void reboot();

    /** @name Key material. @{ */
    const crypto::RsaPublicKey &srkPublic() const { return srk_.pub; }
    const crypto::RsaPublicKey &aikPublic() const { return aik_.pub; }
    /** @} */

    /** @name Ordinary (software-invocable) commands. @{ */
    Result<PcrValue> pcrRead(std::size_t index);
    Status pcrExtend(std::size_t index, const Bytes &digest);
    Result<Bytes> getRandom(std::size_t bytes);
    /** Seal @p payload to the *current* values of @p pcr_selection. */
    Result<SealedBlob> seal(const Bytes &payload,
                            const std::vector<std::size_t> &pcr_selection);
    /** Seal to an explicit digest-at-release policy. */
    Result<SealedBlob> sealToPolicy(const Bytes &payload,
                                    const SealPolicy &policy);
    /** Unseal; fails unless every policy PCR currently matches. */
    Result<Bytes> unseal(const SealedBlob &blob);
    Result<TpmQuote> quote(const Bytes &nonce,
                           const std::vector<std::size_t> &pcr_selection);
    /** @} */

    /** @name Monotonic counters (TCG v1.2 optional resource).
     * Sealed storage alone cannot stop the untrusted OS from replaying
     * an *old* sealed blob to a PAL (state rollback). A PAL that stores
     * the counter value inside its sealed state and increments on every
     * update detects rollback: an unsealed value below the hardware
     * counter means the OS fed it stale state.
     * @{ */
    /** Create a counter starting at 0; returns its handle. */
    Result<std::uint32_t> counterCreate();
    /** Increment and return the new value (monotonic, never resets
     *  except by TPM ownership clear -- not modeled). */
    Result<std::uint64_t> counterIncrement(std::uint32_t handle);
    /** Current value. */
    Result<std::uint64_t> counterRead(std::uint32_t handle) const;
    /** @} */

    /** @name PCR-gated non-volatile storage (TPM_NV_*, TCG v1.2).
     * A small NV area whose reads/writes can be gated on PCR contents:
     * define a space bound to the current value of some PCRs, and only
     * software that can reproduce those values (i.e. the late-launched
     * PAL) may access it. Persists across reboot().
     * @{ */
    /** Define a space of @p bytes gated on the current values of
     *  @p pcr_selection (empty = ungated). Returns the space index. */
    Result<std::uint32_t> nvDefine(std::size_t bytes,
                                   const std::vector<std::size_t> &
                                       pcr_selection);
    /** Write @p data (must fit the defined size). */
    Status nvWrite(std::uint32_t index, const Bytes &data);
    /** Read the space contents. */
    Result<Bytes> nvRead(std::uint32_t index);
    /** @} */

    /** @name Chip NVRAM persistence.
     * Monotonic counters and NV spaces live in the chip's non-volatile
     * memory: they survive power cycles of the *chip*, not just
     * reboot() of the simulation. A host process that models a machine
     * restart (the durable store engine, tools) serializes the NV
     * state on the way down and restores it into a freshly constructed
     * Tpm of the same seed on the way up -- the simulation analogue of
     * the NVRAM soldered to the board. Everything else (PCRs, sessions,
     * the lock) is volatile and deliberately not captured.
     * @{ */
    /** Serialize counters + NV spaces ("TNV1" layout). */
    Bytes exportNvState() const;
    /** Restore a previously exported NV image. Refuses (leaving the
     *  chip untouched) when the image is malformed or the chip already
     *  holds NV state -- restore is a cold-boot operation. */
    Status importNvState(const Bytes &wire);
    /** The counters a valid NV image holds, in handle order; the same
     *  checks and refusals as importNvState, with no chip involved
     *  (what a tool reads from a sidecar). */
    static Result<std::vector<std::uint64_t>>
    nvStateCounters(const Bytes &wire);
    /** @} */

    /** @name Late-launch hash interface (locality 4 / hardware only).
     * TPM_HASH_START resets the dynamic PCRs; TPM_HASH_DATA streams the
     * SLB/ACMod bytes (the long-wait-cycle cost lives here); TPM_HASH_END
     * hashes the buffered bytes and extends PCR 17.
     * @{ */
    Status hashStart(Locality locality);
    Status hashData(const Bytes &chunk, Locality locality);
    Status hashEnd(Locality locality);
    /** @} */

    /** @name Hardware TPM lock (Section 5.4.5).
     * Multi-CPU arbitration for the recommended architecture: a CPU takes
     * the lock before streaming measurements, and all other CPUs' TPM
     * commands fail with resourceExhausted until release.
     * @{ */
    bool tryLock(CpuId cpu);
    Status unlock(CpuId cpu);
    std::optional<CpuId> lockHolder() const { return lockHolder_; }
    /** @} */

    /** @name Transport-session resumption tickets (Section 3.3).
     * Accepting a transport session costs an in-TPM RSA decrypt; the TPM
     * keeps a digest of each accepted session key so the same principal
     * can resume without repeating the key exchange. Each ticket carries
     * an epoch counter that advances on every resumption, so traffic
     * keys (and therefore MACs) from an earlier epoch cannot be replayed
     * into a resumed session. Volatile: cleared by reboot() like the
     * rest of the session state.
     * @{ */
    void registerTransportTicket(const Bytes &key_digest);
    bool hasTransportTicket(const Bytes &key_digest) const;
    /** Advance the ticket's epoch and return the new value (>= 1). */
    Result<std::uint64_t> advanceTransportTicketEpoch(
        const Bytes &key_digest);
    /** @} */

    /** Direct PCR bank access for tests and the sePCR extension. */
    PcrBank &pcrs() { return pcrs_; }
    const PcrBank &pcrs() const { return pcrs_; }

    /** Unseal the blob crypto without policy (sePCR extension backend). */
    Result<Bytes> unsealRaw(const SealedBlob &blob) const;
    /** The SRK public key handle for blob construction by extensions. */
    const crypto::RsaPrivateKey &srkPrivate() const { return srk_; }
    /** Sign @p payload with the AIK (sePCR quote path). */
    Bytes aikSign(const Bytes &payload) const;
    /** Charge @p mean (with jitter) to the attached clock. @p op names
     *  the command for an attached observer (nullptr = generic). */
    void charge(Duration mean, const char *op = nullptr);
    /** RNG shared with extensions so streams stay deterministic. */
    Rng &rng() { return rng_; }

    /** Command counters (gem5-style observability). */
    const TpmStats &stats() const { return stats_; }

    /** Watchers of every charged command. */
    ObserverList<TpmCommandObserver> &commandObservers()
    {
        return observers_;
    }

  private:
    Status requireHardware(Locality locality, const char *op) const;

    TpmTimingProfile profile_;
    TimePoint busyUntil_; //!< the chip serializes commands (one LPC port)
    PcrBank pcrs_;
    crypto::RsaPrivateKey srk_;
    crypto::RsaPrivateKey aik_;
    Rng rng_;
    Timeline ownClock_;
    Timeline *clock_ = nullptr;

    bool hashSequenceOpen_ = false;
    //! Streaming TPM_HASH_DATA digest: chunks are absorbed as they
    //! arrive instead of buffering the whole SLB until TPM_HASH_END.
    crypto::Sha1 hashSeq_;
    std::optional<CpuId> lockHolder_;
    struct TransportTicket
    {
        Bytes keyDigest;
        std::uint64_t epoch = 0; //!< bumps on every resumption
    };
    std::vector<TransportTicket> transportTickets_; //!< volatile
    std::vector<std::uint64_t> counters_; //!< persists across reboot()

    struct NvSpace
    {
        SealPolicy policy; //!< PCR gate captured at define time
        std::size_t size = 0;
        Bytes data;
    };
    std::vector<NvSpace> nvSpaces_; //!< persists across reboot()
    /** Parse a TNV1 image into @p counters and @p spaces. */
    static Status decodeNvState(const Bytes &wire,
                                std::vector<std::uint64_t> &counters,
                                std::vector<NvSpace> &spaces);
    mutable TpmStats stats_;
    ObserverList<TpmCommandObserver> observers_;
};

} // namespace mintcb::tpm

#endif // MINTCB_TPM_TPM_HH
