/**
 * @file
 * Transport session implementation.
 *
 * Framing: plaintext = u8 op | u32 pcr | length-prefixed payload. A batch
 * nests that framing: op=batch, payload = u32 count | count inner
 * commands, each u8 op | u32 pcr | length-prefixed payload. The batch
 * response carries one u8 status + length-prefixed payload per inner
 * command. Both endpoints use a per-epoch traffic key k =
 * HMAC-SHA256(master, "ts-epoch" || epoch); the initial accept is epoch
 * 0 and every resumption advances the ticket's epoch. Encryption:
 * crypto::hmacSha256Xor under k, prefix "ts-enc" || direction ||
 * counter, so stream block i is HMAC-SHA256(k, prefix || i).
 * MAC: HMAC-SHA256(k, "ts-mac" || direction || counter || lp(ciphertext));
 * the counter gives replay protection within an epoch and the epoch key
 * keeps recordings from an earlier session life from verifying after a
 * resumption resets the counters.
 */

#include "tpm/transport.hh"

#include "common/bytebuf.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

namespace mintcb::tpm
{

Bytes
epochKey(const Bytes &master, std::uint64_t epoch)
{
    ByteWriter w;
    w.str("ts-epoch");
    w.u64(epoch);
    return crypto::hmacSha256(master, w.bytes());
}

namespace
{

/** The stream prefix of message @p counter in @p direction
 *  (crypto::hmacSha256Xor). */
Bytes
streamPrefix(std::uint8_t direction, std::uint64_t counter)
{
    ByteWriter w;
    w.str("ts-enc");
    w.u8(direction);
    w.u64(counter);
    return w.take();
}

Bytes
computeMac(const Bytes &key, std::uint8_t direction,
           std::uint64_t counter, const Bytes &ciphertext)
{
    // Only the fixed-size header goes through a ByteWriter; the
    // ciphertext streams straight into the MAC, so long messages are
    // never copied into a transcript buffer first.
    ByteWriter w;
    w.str("ts-mac");
    w.u8(direction);
    w.u64(counter);
    w.u32(static_cast<std::uint32_t>(ciphertext.size()));
    crypto::HmacSha256 mac(key);
    mac.update(w.bytes());
    mac.update(ciphertext);
    return mac.finish();
}

WrappedMessage
wrap(const Bytes &key, std::uint8_t direction, std::uint64_t counter,
     Bytes plaintext)
{
    WrappedMessage m;
    m.ciphertext = crypto::hmacSha256Xor(
        key, streamPrefix(direction, counter), std::move(plaintext));
    m.mac = computeMac(key, direction, counter, m.ciphertext);
    return m;
}

Result<Bytes>
unwrap(const Bytes &key, std::uint8_t direction, std::uint64_t counter,
       const WrappedMessage &m)
{
    const Bytes expected = computeMac(key, direction, counter,
                                      m.ciphertext);
    if (!crypto::constantTimeEqual(expected, m.mac)) {
        return Error(Errc::integrityFailure,
                     "transport MAC mismatch (tamper or replay)");
    }
    return crypto::hmacSha256Xor(key, streamPrefix(direction, counter),
                                 m.ciphertext);
}

void
writeCommand(ByteWriter &w, TransportOp op, std::uint32_t pcr,
             const Bytes &payload)
{
    w.u8(static_cast<std::uint8_t>(op));
    w.u32(pcr);
    w.lengthPrefixed(payload);
}

constexpr std::uint8_t toTpm = 0x01;
constexpr std::uint8_t fromTpm = 0x02;

} // namespace

Bytes
WrappedMessage::encode() const
{
    ByteWriter w;
    w.lengthPrefixed(ciphertext);
    w.lengthPrefixed(mac);
    return w.take();
}

Result<WrappedMessage>
WrappedMessage::decode(const Bytes &wire)
{
    ByteReader r(wire);
    WrappedMessage m;
    m.ciphertext = r.getLengthPrefixed();
    m.mac = r.getLengthPrefixed();
    return r.finish(std::move(m), Errc::integrityFailure,
                    "trailing transport bytes");
}

Result<TransportClient::Opened>
TransportClient::open(const crypto::RsaPublicKey &srk, Rng &rng)
{
    return openWithKey(srk, rng, rng.bytes(32));
}

Result<TransportClient::Opened>
TransportClient::openWithKey(const crypto::RsaPublicKey &srk, Rng &rng,
                             const Bytes &key)
{
    if (key.size() != 32) {
        return Error(Errc::invalidArgument,
                     "transport session key must be 32 bytes");
    }
    auto envelope = crypto::rsaEncrypt(srk, rng, key);
    if (!envelope)
        return envelope.error();
    return Opened{TransportClient(epochKey(key, 0)), envelope.take()};
}

Result<TransportClient>
TransportClient::resume(const Bytes &key, std::uint64_t epoch)
{
    if (key.size() != 32) {
        return Error(Errc::invalidArgument,
                     "transport session key must be 32 bytes");
    }
    return TransportClient(epochKey(key, epoch));
}

WrappedMessage
TransportClient::wrapCommand(TransportOp op, std::uint32_t pcr,
                             const Bytes &payload)
{
    ByteWriter w;
    writeCommand(w, op, pcr, payload);
    return wrap(key_, toTpm, sendCounter_++, w.take());
}

WrappedMessage
TransportClient::wrapBatch(const std::vector<TransportCommand> &commands)
{
    ByteWriter inner;
    inner.u32(static_cast<std::uint32_t>(commands.size()));
    for (const TransportCommand &c : commands)
        writeCommand(inner, c.op, c.pcr, c.payload);

    ByteWriter w;
    writeCommand(w, TransportOp::batch, 0, inner.bytes());
    return wrap(key_, toTpm, sendCounter_++, w.take());
}

Result<Bytes>
TransportClient::unwrapResponse(const WrappedMessage &message)
{
    auto plain = unwrap(key_, fromTpm, recvCounter_, message);
    if (!plain)
        return plain.error();
    ++recvCounter_;
    return plain;
}

Result<std::vector<TransportReply>>
TransportClient::unwrapBatchResponse(const WrappedMessage &message)
{
    auto plain = unwrapResponse(message);
    if (!plain)
        return plain.error();
    ByteReader r(*plain);
    const std::uint8_t status = r.getU8();
    if (r.ok() && status != 0) {
        return Error(Errc::integrityFailure,
                     "batch exchange rejected by the TPM");
    }
    std::vector<TransportReply> replies;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        TransportReply reply;
        reply.status = static_cast<Errc>(r.getU8());
        reply.payload = r.getLengthPrefixed();
        if (!r.ok())
            break;
        replies.push_back(std::move(reply));
    }
    return r.finish(std::move(replies), Errc::integrityFailure,
                    "trailing batch bytes");
}

Status
TpmTransportServer::accept(const Bytes &envelope)
{
    auto key = crypto::rsaDecrypt(tpm_.srkPrivate(), envelope);
    if (!key) {
        ++stats_.rejected;
        return key.error();
    }
    if (key->size() != 32) {
        ++stats_.rejected;
        return Error(Errc::invalidArgument,
                     "transport session key must be 32 bytes");
    }
    // The session-key decrypt is an in-TPM RSA private-key operation of
    // the same class as an unseal (Section 4.3.3).
    tpm_.charge(tpm_.profile().unseal, "tpm:session_accept");
    const Bytes master = key.take();
    key_ = epochKey(master, 0);
    recvCounter_ = 0;
    sendCounter_ = 0;
    tpm_.registerTransportTicket(crypto::Sha256::digestBytes(master));
    ++stats_.sessionsAccepted;
    return okStatus();
}

Result<std::uint64_t>
TpmTransportServer::acceptResumed(const Bytes &key)
{
    if (key.size() != 32) {
        ++stats_.rejected;
        return Error(Errc::invalidArgument,
                     "transport session key must be 32 bytes");
    }
    // Advancing the ticket epoch rekeys the session: counters restart at
    // zero, but under a fresh traffic key, so recordings from any
    // earlier epoch fail the MAC instead of replaying.
    auto epoch = tpm_.advanceTransportTicketEpoch(
        crypto::Sha256::digestBytes(key));
    if (!epoch) {
        ++stats_.rejected;
        return epoch.error();
    }
    // Symmetric-only resumption costs one cheap command's latency.
    tpm_.charge(tpm_.profile().pcrRead, "tpm:transport_exec");
    key_ = epochKey(key, *epoch);
    recvCounter_ = 0;
    sendCounter_ = 0;
    ++stats_.sessionsResumed;
    return epoch;
}

Result<Bytes>
TpmTransportServer::executeOne(TransportOp op, std::uint32_t pcr,
                               const Bytes &payload)
{
    switch (op) {
      case TransportOp::pcrRead: {
          auto value = tpm_.pcrRead(pcr);
          if (!value)
              return value.error();
          return *value;
      }
      case TransportOp::pcrExtend: {
          if (auto s = tpm_.pcrExtend(pcr, payload); !s.ok())
              return s.error();
          return Bytes{};
      }
      case TransportOp::getRandom: {
          auto bytes = tpm_.getRandom(pcr); // pcr field doubles as count
          if (!bytes)
              return bytes.error();
          return bytes.take();
      }
      case TransportOp::batch:
        return Error(Errc::invalidArgument,
                     "batches do not nest");
      default:
        return Error(Errc::invalidArgument, "unknown transport opcode");
    }
}

Result<WrappedMessage>
TpmTransportServer::execute(const WrappedMessage &message)
{
    if (key_.empty()) {
        return Error(Errc::failedPrecondition,
                     "no transport session established");
    }
    auto plain = unwrap(key_, toTpm, recvCounter_, message);
    if (!plain) {
        ++stats_.rejected;
        return plain.error();
    }
    ++recvCounter_;
    ++stats_.exchanges;

    ByteReader r(*plain);
    const auto op = static_cast<TransportOp>(r.getU8());
    const std::uint32_t pcr = r.getU32();
    const Bytes payload = r.getLengthPrefixed();
    if (auto s = r.finish(Errc::integrityFailure,
                          "trailing transport bytes");
        !s.ok()) {
        ++stats_.rejected;
        return s.error();
    }

    ByteWriter response;
    if (op == TransportOp::batch) {
        ByteReader inner(payload);
        const std::uint32_t count = inner.getU32();
        response.u8(0);
        response.u32(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const auto cop = static_cast<TransportOp>(inner.getU8());
            const std::uint32_t cpcr = inner.getU32();
            const Bytes cpayload = inner.getLengthPrefixed();
            // Only a sub-command that parsed in full reaches the TPM.
            if (!inner.ok())
                break;
            // A refused sub-command (bad PCR index, locked TPM) reports
            // its category in-band; the exchange itself still succeeds.
            auto result = executeOne(cop, cpcr, cpayload);
            if (result) {
                response.u8(static_cast<std::uint8_t>(Errc::ok));
                response.lengthPrefixed(*result);
            } else {
                response.u8(static_cast<std::uint8_t>(
                    result.error().code));
                response.lengthPrefixed(Bytes{});
            }
            ++stats_.commands;
            ++stats_.batchedCommands;
        }
        if (auto s = inner.finish(Errc::integrityFailure,
                                  "trailing batch bytes");
            !s.ok()) {
            ++stats_.rejected;
            return s.error();
        }
    } else {
        ++stats_.commands;
        auto result = executeOne(op, pcr, payload);
        if (!result)
            return result.error();
        response.u8(0);
        // Preserve the original single-command framing: extend responses
        // carry no payload field at all.
        if (op != TransportOp::pcrExtend)
            response.lengthPrefixed(*result);
    }
    return wrap(key_, fromTpm, sendCounter_++, response.take());
}

} // namespace mintcb::tpm
