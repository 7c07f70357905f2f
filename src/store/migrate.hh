/**
 * @file
 * Attested state migration between sealed stores.
 *
 * Sealed state is useless on another machine: the SRK never leaves the
 * TPM, so a copied store directory cannot be unsealed elsewhere -- and
 * that is the correct default. Migration is the deliberate exception,
 * and it must not weaken the sealing story on the way through:
 *
 *   1. the source issues a fresh challenge nonce;
 *   2. the *target* store quotes its PCR-17 launch identity over
 *      sha256(nonce || targetSrk) -- binding the attested launch to
 *      the exact key that will receive the state;
 *   3. the source verifies the quote against the well-known store
 *      identity PAL (sea::Verifier: CA chain, signature, freshness,
 *      whitelist) and only then unseals its map, re-seals it to the
 *      target's SRK under the same PCR-17 policy, and invalidates
 *      itself (hardware counter advances with no matching commit, so
 *      the old directory is a typed rollback rejection forever);
 *   4. the target adopts the bundle into an empty store, journaling
 *      the entries through its own WAL at a fresh epoch.
 *
 * At no point do clear state bytes exist outside a verified store
 * engine, and at no point are two replicas simultaneously openable.
 */

#ifndef MINTCB_STORE_MIGRATE_HH
#define MINTCB_STORE_MIGRATE_HH

#include <cstdint>
#include <deque>
#include <mutex>

#include "common/result.hh"
#include "common/rng.hh"
#include "sea/attestation.hh"
#include "store/engine.hh"

namespace mintcb::store
{

/** Migration bundle magic: "MMB1". */
inline constexpr std::uint32_t migrationMagic = 0x4d4d4231;
inline constexpr std::uint16_t migrationVersion = 1;

/** The sealed parcel a source hands a verified target. */
struct MigrationBundle
{
    std::uint64_t sourceEpoch = 0; //!< audit trail; target restarts at 1
    Bytes sealedState; //!< SealedBlob wire, sealed to the target SRK

    Bytes encode() const;
    static Result<MigrationBundle> decode(const Bytes &wire);
};

/** sha256(lp(nonce) || lp(srk_wire)): the quoted challenge that binds
 *  a target's attested launch to its receiving SRK. */
Bytes migrationBoundNonce(const Bytes &nonce, const Bytes &srk_wire);

/**
 * Source-side policy engine for outbound migration. Owns the challenge
 * nonces (fresh, single-use, bounded FIFO) and the verifier trusting
 * the store identity PAL; the gateway's MIGRATE verb drives exactly
 * this object.
 */
class MigrationAuthority
{
  public:
    explicit MigrationAuthority(SealedStore &source,
                                std::uint64_t nonce_seed = 0x4d494752);

    /** Mint a fresh challenge nonce and remember it as outstanding. */
    Bytes beginChallenge();

    /**
     * Complete a migration: verify that @p attestation_wire quotes the
     * store identity PAL over migrationBoundNonce(@p nonce,
     * @p target_srk_wire), then export + invalidate the source and
     * return the encoded MigrationBundle re-sealed to the target.
     * Typed refusals: unknown/replayed nonce (permissionDenied),
     * failed quote verification (whatever verifyFresh diagnosed),
     * uncommitted source mutations (failedPrecondition), a bundle
     * larger than @p max_bundle_bytes (resourceExhausted). Every
     * refusal leaves the source live and its counter untouched.
     */
    Result<Bytes> complete(const Bytes &nonce,
                           const Bytes &target_srk_wire,
                           const Bytes &attestation_wire,
                           std::size_t max_bundle_bytes = SIZE_MAX);

    /** Target-side adoption: unseal @p bundle_wire on @p target (only
     *  possible on the machine whose SRK it was sealed to, inside the
     *  store identity) and journal it in at a fresh epoch. */
    static Status adopt(SealedStore &target, const Bytes &bundle_wire);

    std::size_t outstandingChallenges() const;

  private:
    SealedStore &source_;
    sea::Verifier verifier_;
    Rng rng_;
    mutable std::mutex mu_;
    std::deque<Bytes> outstanding_;
};

} // namespace mintcb::store

#endif // MINTCB_STORE_MIGRATE_HH
