/**
 * @file
 * Attested migration implementation.
 */

#include "store/migrate.hh"

#include <algorithm>

#include "common/bytebuf.hh"
#include "crypto/rsa.hh"
#include "crypto/sha256.hh"
#include "tpm/blob.hh"

namespace mintcb::store
{

namespace
{

/** How many unanswered challenges a source keeps before the oldest
 *  silently expires. */
constexpr std::size_t maxOutstanding = 16;

} // namespace

Bytes
MigrationBundle::encode() const
{
    ByteWriter w;
    w.u32(migrationMagic);
    w.u16(migrationVersion);
    w.u64(sourceEpoch);
    w.lengthPrefixed(sealedState);
    return w.take();
}

Result<MigrationBundle>
MigrationBundle::decode(const Bytes &wire)
{
    ByteReader r(wire);
    const std::uint32_t magic = r.getU32();
    if (r.ok() && magic != migrationMagic) {
        return Error(Errc::integrityFailure,
                     "not a migration bundle");
    }
    const std::uint16_t version = r.getU16();
    if (r.ok() && version != migrationVersion) {
        return Error(Errc::invalidArgument,
                     "unknown migration bundle version");
    }
    MigrationBundle bundle;
    bundle.sourceEpoch = r.getU64();
    bundle.sealedState = r.getLengthPrefixed();
    return r.finish(std::move(bundle), Errc::integrityFailure,
                    "trailing bytes in migration bundle");
}

Bytes
migrationBoundNonce(const Bytes &nonce, const Bytes &srk_wire)
{
    ByteWriter w;
    w.lengthPrefixed(nonce);
    w.lengthPrefixed(srk_wire);
    return crypto::Sha256::digestBytes(w.bytes());
}

MigrationAuthority::MigrationAuthority(SealedStore &source,
                                       std::uint64_t nonce_seed)
    : source_(source), rng_(nonce_seed)
{
    verifier_.trustPal(SealedStore::identityPal());
}

Bytes
MigrationAuthority::beginChallenge()
{
    std::lock_guard<std::mutex> lock(mu_);
    Bytes nonce = rng_.bytes(20);
    outstanding_.push_back(nonce);
    while (outstanding_.size() > maxOutstanding)
        outstanding_.pop_front();
    return nonce;
}

std::size_t
MigrationAuthority::outstandingChallenges() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return outstanding_.size();
}

Result<Bytes>
MigrationAuthority::complete(const Bytes &nonce,
                             const Bytes &target_srk_wire,
                             const Bytes &attestation_wire,
                             std::size_t max_bundle_bytes)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = std::find(outstanding_.begin(), outstanding_.end(),
                            nonce);
        if (it == outstanding_.end()) {
            return Error(Errc::permissionDenied,
                         "migration nonce is unknown or already used");
        }
        outstanding_.erase(it);
    }

    auto targetSrk = crypto::RsaPublicKey::decode(target_srk_wire);
    if (!targetSrk)
        return targetSrk.error();

    auto attestation = sea::Attestation::decode(attestation_wire);
    if (!attestation)
        return attestation.error();

    // The quote must cover sha256(nonce || targetSrk): a valid quote
    // stapled to a *different* SRK (the classic relay) binds to the
    // wrong challenge and dies here in verifyFresh.
    const Bytes bound = migrationBoundNonce(nonce, target_srk_wire);
    auto verified = verifier_.verifyFresh(*attestation, bound);
    if (!verified)
        return verified.error();

    return source_.exportForMigration(
        [&](const Bytes &payload, std::uint64_t sourceEpoch)
            -> Result<Bytes> {
            const tpm::SealPolicy policy = {
                {17, SealedStore::identityPal().expectedPcr17()}};
            tpm::SealedBlob blob =
                tpm::sealBlob(*targetSrk, rng_, payload, policy);
            MigrationBundle bundle;
            bundle.sourceEpoch = sourceEpoch;
            bundle.sealedState = blob.encode();
            Bytes wire = bundle.encode();
            if (wire.size() > max_bundle_bytes) {
                return Error(Errc::resourceExhausted,
                             "migration bundle of " +
                                 std::to_string(wire.size()) +
                                 " bytes exceeds the " +
                                 std::to_string(max_bundle_bytes) +
                                 "-byte limit");
            }
            return wire;
        });
}

Status
MigrationAuthority::adopt(SealedStore &target, const Bytes &bundle_wire)
{
    auto bundle = MigrationBundle::decode(bundle_wire);
    if (!bundle)
        return bundle.error();
    auto blob = tpm::SealedBlob::decode(bundle->sealedState);
    if (!blob)
        return blob.error();
    Result<Bytes> payload = [&]() -> Result<Bytes> {
        std::lock_guard<std::mutex> lock(target.mu_);
        return target.unsealWithDiagnosis(*blob);
    }();
    if (!payload)
        return payload.error();
    if (auto s = target.adoptMigrated(*payload); !s.ok())
        return s;
    // Commit immediately: the source was invalidated the moment the
    // bundle was produced, so the adopted state must not be able to
    // vanish in a pre-commit crash.
    return target.commit();
}

} // namespace mintcb::store
