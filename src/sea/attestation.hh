/**
 * @file
 * Attestation: Privacy CA, AIK certificates, and the external verifier.
 *
 * "Attestation allows an external party (or verifier) to make a trust
 * decision based on the platform's software state" (Section 2.1.1). With
 * SEA the verifier only needs to whitelist *PAL measurements*: PCR 17
 * "cannot be made to contain the measurements of any code without
 * actually loading and executing it" (Section 3.3).
 */

#ifndef MINTCB_SEA_ATTESTATION_HH
#define MINTCB_SEA_ATTESTATION_HH

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"
#include "crypto/rsa.hh"
#include "machine/machine.hh"
#include "sea/pal.hh"
#include "tpm/tpm.hh"

namespace mintcb::sea
{

/** A Privacy-CA-issued certificate binding an AIK to a genuine TPM. */
struct AikCertificate
{
    Bytes aikPublic;     //!< encoded AIK public key
    std::string subject; //!< platform label
    Bytes signature;     //!< Privacy CA signature over key + subject

    /** The byte string the CA signs. */
    Bytes tbs() const;
};

/** The Privacy Certificate Authority (Section 2.1.1). */
class PrivacyCa
{
  public:
    /** The simulated CA, with a process-wide deterministic key. */
    static PrivacyCa &instance();

    const crypto::RsaPublicKey &publicKey() const;

    /** Issue a certificate for @p aik (the CA "attests that the AIK
     *  corresponds to an AIK generated by a legitimate TPM"). */
    AikCertificate issue(const crypto::RsaPublicKey &aik,
                         const std::string &subject) const;

    /** Certificate-chain validation: ok, or why the chain is broken. */
    Status validate(const AikCertificate &cert) const;

  private:
    PrivacyCa() = default;
};

/** Everything a verifier receives: quote + AIK certificate. */
struct Attestation
{
    tpm::TpmQuote quote;
    AikCertificate aikCert;

    Bytes encode() const;
    static Result<Attestation> decode(const Bytes &wire);
};

/** Produce an attestation of @p machine's dynamic PCRs, charging the
 *  TPM_Quote cost to @p cpu, and attach @p cert, the certificate of
 *  the machine's AIK. The CA certifies an AIK once: whoever holds the
 *  AIK keeps the certificate PrivacyCa::issue returned and passes it
 *  to every quote. */
Result<Attestation> attestLaunch(machine::Machine &machine, CpuId cpu,
                                 const Bytes &nonce,
                                 const AikCertificate &cert);

/** What a successful verification tells the relying party. */
struct VerifiedLaunch
{
    Bytes palMeasurement; //!< whitelisted measurement that matched
    std::string palName;  //!< whitelist label
};

/**
 * The external verifier. Holds the Privacy CA trust root and a whitelist
 * of PAL measurements; accepts an attestation only if the certificate
 * chain, signature, nonce, and PCR-17 identity all check out.
 */
class Verifier
{
  public:
    /** Trust @p pal: a quote showing its launch identity will verify. */
    void trustPal(const Pal &pal);

    /** Trust a raw measurement under @p name. */
    void trustMeasurement(std::string name, Bytes measurement);

    /**
     * Full verification: CA chain, quote signature, nonce freshness,
     * dynamic-PCR sanity (launch actually happened: PCR 17 is neither
     * the reboot value nor the bare reset value), and whitelist match.
     */
    Result<VerifiedLaunch> verify(const Attestation &attestation,
                                  const Bytes &expected_nonce) const;

    /**
     * As verify(), but additionally *remembers* every accepted quote
     * nonce and refuses one it has seen before (Errc::permissionDenied).
     * A verifier holding long-lived sessions must use this entry point:
     * plain verify() only proves the quote covers @p expected_nonce,
     * so a caller that re-challenges with a nonce it already accepted
     * -- or lets an attacker replay a recorded (nonce, quote) pair into
     * a new session -- would accept stale evidence. The memory is a
     * bounded FIFO (nonceMemory()); size it above the number of
     * sessions that can be in flight concurrently.
     */
    Result<VerifiedLaunch> verifyFresh(const Attestation &attestation,
                                       const Bytes &expected_nonce);

    /** Cap the replay memory at @p nonces entries (default 1024).
     *  Zero is refused (Errc::invalidArgument): a memory that holds no
     *  nonce would accept every replay. */
    Status setNonceMemory(std::size_t nonces);
    std::size_t nonceMemory() const { return nonceCapacity_; }

    /** Number of nonces currently remembered. */
    std::size_t seenNonceCount() const { return seenNonces_.size(); }

  private:
    struct Entry
    {
        std::string name;
        Bytes measurement;
        Bytes expectedPcr17;
    };
    std::vector<Entry> whitelist_;
    std::deque<Bytes> seenNonces_; //!< FIFO of accepted quote nonces
    std::size_t nonceCapacity_ = 1024;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_ATTESTATION_HH
