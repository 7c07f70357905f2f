/**
 * @file
 * Attested-session handshake for the network gateway.
 *
 * Session establishment is mutual remote attestation (the SoK's
 * "attestation front door"):
 *
 *   1. client -> hello:     protocol version + a fresh client nonce
 *   2. gw  -> challenge:    the gateway platform's attestation (PCR 17
 *                           quote over the *client's* nonce, AIK cert
 *                           chained to the Privacy CA) + a fresh
 *                           gateway nonce
 *   3. client verifies the gateway quote (sea::Verifier), then
 *      client -> auth:      the client platform's attestation over the
 *                           *gateway's* nonce
 *   4. gw verifies through sea::Verifier::verifyFresh (certificate
 *      chain, signature, exact-nonce freshness, nonce-replay memory,
 *      PAL whitelist) and only then admits the session; any submit
 *      before authOk is refused and never reaches the service.
 *
 * AttestedIdentity packages the platform side: a simulated machine
 * that late-launched its identity PAL at construction, leaving the
 * PAL's measurement in PCR 17, from which fresh quotes are produced
 * per handshake. The Privacy CA certifies the platform's AIK once, on
 * the first attest, and the identity attaches that certificate to
 * every later quote. Identity machines are deliberately *separate* from
 * the machine behind the ExecutionService: handshake TPM traffic
 * charges their virtual clocks, so session churn can never perturb
 * the service timeline (the end-to-end determinism argument,
 * DESIGN.md section 11.4).
 */

#ifndef MINTCB_NET_HANDSHAKE_HH
#define MINTCB_NET_HANDSHAKE_HH

#include <optional>
#include <string>

#include "machine/machine.hh"
#include "sea/attestation.hh"

namespace mintcb::net
{

/** Quote nonce size used by both sides of the handshake. */
inline constexpr std::size_t handshakeNonceBytes = 20;

/** @name Session tickets (DESIGN.md section 11.2).
 * A ticket is an id and a secret, both from OS entropy, plus an epoch
 * that advances on every admitted resume. Each resume proves
 * possession under the per-epoch key k_e = tpm::epochKey(secret, e),
 * so a recorded resume frame never verifies again. @{ */
inline constexpr std::size_t ticketIdBytes = 16;
inline constexpr std::size_t ticketSecretBytes = 32;

/** The client's proof: HMAC-SHA256(k_e, id || u64 epoch || nonce). */
Bytes resumeProof(const Bytes &secret, const Bytes &id, std::uint64_t epoch,
                  const Bytes &nonce);

/** The gateway's answer: HMAC-SHA256(k_e, nonce). */
Bytes resumedProof(const Bytes &secret, std::uint64_t epoch,
                   const Bytes &nonce);

/** SHA-256 of an encoded AIK public key: what a ticket records of the
 *  client and gateway identities. */
Bytes aikFingerprint(const Bytes &aik_public);
/** @} */

/** A platform identity that can answer attestation challenges. */
class AttestedIdentity
{
  public:
    /**
     * Build a platform for @p subject, write @p identity_pal's SLB
     * into memory and late-launch it so PCR 17 carries the PAL's
     * launch identity. Check ok() before use: a failed launch leaves
     * the identity unable to attest.
     */
    AttestedIdentity(std::string subject, const sea::Pal &identity_pal,
                     std::uint64_t seed,
                     machine::PlatformId platform =
                         machine::PlatformId::hpDc5750);

    /** Did the identity launch succeed? */
    bool ok() const { return launchStatus_.ok(); }
    const Status &launchStatus() const { return launchStatus_; }

    const std::string &subject() const { return subject_; }
    const sea::Pal &pal() const { return pal_; }

    /** A fresh quote of this platform's dynamic PCRs over @p nonce,
     *  with the AIK certificate the Privacy CA issued on the first
     *  attest. */
    Result<sea::Attestation> attest(const Bytes &nonce);

    /** Draw a fresh handshake nonce from this platform's seeded RNG. */
    Bytes freshNonce();

    /** aikFingerprint of this platform's AIK. */
    Bytes aikFingerprint();

    /** The well-known gateway identity PAL (what remote clients
     *  whitelist to trust a mintcb-gate instance). */
    static sea::Pal gatewayPal();

    /** The stock client identity PAL under @p name (what the gateway
     *  whitelists to admit clients). */
    static sea::Pal clientPal(const std::string &name = "mintcb-client");

  private:
    std::string subject_;
    sea::Pal pal_;
    machine::Machine machine_;
    Status launchStatus_;
    std::optional<sea::AikCertificate> aikCert_;
};

} // namespace mintcb::net

#endif // MINTCB_NET_HANDSHAKE_HH
