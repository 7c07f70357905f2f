/**
 * @file
 * Password vault implementation.
 */

#include "apps/ssh_pal.hh"

#include "common/bytebuf.hh"
#include "common/hex.hh"
#include "crypto/hmac.hh"

namespace mintcb::apps
{

namespace
{

/** Modeled in-PAL cost of the (deliberately slow) password KDF. */
constexpr Duration kdfCost = Duration::millis(25);

/** Verifier = HMAC-SHA256(salt, user || 0x00 || password). */
Bytes
deriveVerifier(const Bytes &salt, const std::string &user,
               const std::string &password)
{
    ByteWriter w;
    w.str(user);
    w.u8(0);
    w.str(password);
    return crypto::hmacSha256(salt, w.bytes());
}

/** One PAL identity for enroll and authenticate. */
sea::Pal
passwordPal(bool enroll, std::string user, std::string password)
{
    return sea::Pal::fromLogic(
        "ssh-password-pal", 6 * 1024,
        [enroll, user = std::move(user),
         password = std::move(password)](sea::PalContext &ctx) -> Status {
            if (enroll) {
                auto salt = ctx.tpm().getRandom(16);
                if (!salt)
                    return salt.error();
                const Bytes verifier =
                    deriveVerifier(*salt, user, password);
                ctx.compute(kdfCost);
                ByteWriter record;
                record.lengthPrefixed(*salt);
                record.lengthPrefixed(verifier);
                auto blob = ctx.sealState(record.bytes());
                if (!blob)
                    return blob.error();
                ctx.setOutput(blob->encode());
                return okStatus();
            }

            auto blob = tpm::SealedBlob::decode(ctx.input());
            if (!blob)
                return blob.error();
            auto record = ctx.unsealState(*blob);
            if (!record)
                return record.error();
            ByteReader r(*record);
            const Bytes salt = r.getLengthPrefixed();
            const Bytes stored = r.getLengthPrefixed();
            if (!r.ok())
                return r.error();

            const Bytes attempt = deriveVerifier(salt, user, password);
            ctx.compute(kdfCost);
            const bool match = crypto::constantTimeEqual(attempt, stored);
            ctx.setOutput(Bytes{match ? std::uint8_t{1} : std::uint8_t{0}});
            return okStatus();
        });
}

} // namespace

Status
PasswordVault::enroll(const std::string &user, const std::string &password,
                      CpuId cpu)
{
    auto session = driver_.run(
        sea::PalRequest(passwordPal(true, user, password)), cpu);
    if (!session)
        return session.error();
    lastReport_ = session.take();
    if (!lastReport_.status.ok())
        return lastReport_.status.error();
    auto blob = tpm::SealedBlob::decode(lastReport_.output);
    if (!blob)
        return blob.error();
    records_[user] = blob.take();
    return okStatus();
}

Result<bool>
PasswordVault::authenticate(const std::string &user,
                            const std::string &password, CpuId cpu)
{
    auto it = records_.find(user);
    if (it == records_.end())
        return Error(Errc::notFound, "no record for user " + user);
    auto session =
        driver_.run(sea::PalRequest(passwordPal(false, user, password),
                                    it->second.encode()),
                    cpu);
    if (!session)
        return session.error();
    lastReport_ = session.take();
    if (!lastReport_.status.ok())
        return lastReport_.status.error();
    if (lastReport_.output.size() != 1) {
        return Error(Errc::integrityFailure,
                     "malformed verdict from password PAL");
    }
    return lastReport_.output[0] == 1;
}

Result<tpm::SealedBlob>
PasswordVault::record(const std::string &user) const
{
    auto it = records_.find(user);
    if (it == records_.end())
        return Error(Errc::notFound, "no record for user " + user);
    return it->second;
}

void
PasswordVault::setRecord(const std::string &user, tpm::SealedBlob blob)
{
    records_[user] = std::move(blob);
}

} // namespace mintcb::apps
