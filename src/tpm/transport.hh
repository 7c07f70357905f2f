/**
 * @file
 * TPM secure transport sessions.
 *
 * Section 3.3: "the south bridge is not included in the TCB since the
 * TPM is capable of creating a secure channel to the PAL (by engaging in
 * secure transport sessions)." The LPC bus and everything routing it are
 * untrusted; the PAL establishes a session key under the TPM's SRK and
 * wraps commands with encryption + a rolling-nonce MAC, so an on-path
 * adversary can neither read nor undetectably modify nor replay TPM
 * traffic.
 *
 * Two throughput features serve the multi-PAL execution service:
 *
 *  - **Command pipelining**: TransportOp::batch carries many commands in
 *    one wrapped exchange, so a slice's worth of TPM_Extend traffic pays
 *    the wrap/MAC and bus round-trip once instead of per command.
 *  - **Session resumption**: the full key exchange costs an in-TPM RSA
 *    private-key operation (hundreds of ms of simulated time). Once a
 *    session has been accepted, the TPM remembers a ticket (a digest of
 *    the session key), and a later acceptResumed() with the same key
 *    skips the RSA work -- the model for reusing sealed-state sessions
 *    across PAL launches. Every resumption advances the ticket's epoch
 *    and both endpoints rekey to HMAC(key, epoch), so traffic recorded
 *    in an earlier session life cannot be replayed after the message
 *    counters restart.
 */

#ifndef MINTCB_TPM_TRANSPORT_HH
#define MINTCB_TPM_TRANSPORT_HH

#include <cstdint>
#include <vector>

#include "common/counters.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "tpm/tpm.hh"

namespace mintcb::tpm
{

/** The per-epoch key HMAC-SHA256(@p master, "ts-epoch" || u64 epoch):
 *  a session's traffic key, and the rekey MGW1 resume proofs use. */
Bytes epochKey(const Bytes &master, std::uint64_t epoch);

/** Commands tunneled through a transport session. */
enum class TransportOp : std::uint8_t
{
    pcrRead = 1,
    pcrExtend = 2,
    getRandom = 3,
    batch = 4, //!< container: many commands in one wrapped exchange
};

/** One command to tunnel (the batchable unit). */
struct TransportCommand
{
    TransportOp op = TransportOp::pcrRead;
    std::uint32_t pcr = 0; //!< PCR index (for getRandom: byte count)
    Bytes payload;
};

/** Outcome of one command inside a batch exchange. */
struct TransportReply
{
    Errc status = Errc::ok;
    Bytes payload;

    bool ok() const { return status == Errc::ok; }
};

/** A wrapped (encrypted + MACed) message on the untrusted bus. */
struct WrappedMessage
{
    Bytes ciphertext;
    Bytes mac;

    Bytes encode() const;
    static Result<WrappedMessage> decode(const Bytes &wire);
};

/**
 * The PAL-side endpoint. open() invents a session key, encrypts it to
 * the TPM's SRK, and hands back the opaque envelope to deliver to
 * TpmTransportServer over the untrusted bus.
 */
class TransportClient
{
  public:
    /** Result of open()/openWithKey(): endpoint + key-exchange envelope
     *  (defined after the class body). */
    struct Opened;

    /** Begin a session under a fresh random key. */
    static Result<Opened> open(const crypto::RsaPublicKey &srk, Rng &rng);

    /** Begin a session under a caller-chosen 32-byte key (the service
     *  keeps the key it drew from the machine's seeded RNG so it can
     *  resume later). */
    static Result<Opened> openWithKey(const crypto::RsaPublicKey &srk,
                                      Rng &rng, const Bytes &key);

    /** Resume with a key the TPM already holds a ticket for, at the
     *  epoch acceptResumed() returned; pairs with
     *  TpmTransportServer::acceptResumed(). No RSA work on either side. */
    static Result<TransportClient> resume(const Bytes &key,
                                          std::uint64_t epoch);

    /** Wrap a single command for the wire. */
    WrappedMessage wrapCommand(TransportOp op, std::uint32_t pcr,
                               const Bytes &payload);

    /** Wrap many commands into one exchange (command pipelining). */
    WrappedMessage wrapBatch(const std::vector<TransportCommand> &commands);

    /** Unwrap and authenticate the TPM's response. */
    Result<Bytes> unwrapResponse(const WrappedMessage &message);

    /** Unwrap a batch response into per-command replies (a failed
     *  sub-command reports its Errc without failing the exchange). */
    Result<std::vector<TransportReply>> unwrapBatchResponse(
        const WrappedMessage &message);

  private:
    explicit TransportClient(Bytes key) : key_(std::move(key)) {}

    Bytes key_;
    std::uint64_t sendCounter_ = 0;
    std::uint64_t recvCounter_ = 0;
};

/** A freshly opened session: the endpoint plus the envelope to deliver. */
struct TransportClient::Opened
{
    TransportClient client;
    Bytes envelope; //!< SRK-encrypted session key for the server
};

/** The TPM-side endpoint, dispatching into a Tpm instance. */
class TpmTransportServer
{
  public:
    explicit TpmTransportServer(Tpm &tpm) : tpm_(tpm) {}

    /** Accept a key-exchange envelope (SRK-encrypted session key).
     *  Charges the in-TPM RSA decrypt and registers a resumption ticket
     *  so the same key can later be accepted without RSA work. */
    Status accept(const Bytes &envelope);

    /** Resume a session from a 32-byte key the TPM holds a ticket for.
     *  Charges only a cheap command's latency. Advances the ticket's
     *  epoch, rekeys the session, and returns the new epoch (the public
     *  value the client needs for TransportClient::resume). */
    Result<std::uint64_t> acceptResumed(const Bytes &key);

    /** Process one wrapped exchange (single command or batch); returns
     *  the wrapped response. Tampered or replayed messages yield
     *  integrityFailure and no TPM state change. */
    Result<WrappedMessage> execute(const WrappedMessage &message);

    /** Traffic counters (pipelining / resumption observability). */
    const TransportStats &stats() const { return stats_; }

  private:
    Result<Bytes> executeOne(TransportOp op, std::uint32_t pcr,
                             const Bytes &payload);

    Tpm &tpm_;
    Bytes key_;
    std::uint64_t recvCounter_ = 0;
    std::uint64_t sendCounter_ = 0;
    TransportStats stats_;
};

} // namespace mintcb::tpm

#endif // MINTCB_TPM_TRANSPORT_HH
