/**
 * @file
 * Sealed-storage blob format.
 *
 * TPM_Seal binds data to PCR values: "The TPM will only unseal (decrypt)
 * the data when the PCRs contain the same values specified by the seal
 * command" (Section 2.1.2). mintcb implements sealing for real:
 *
 *   - a fresh 32-byte inner key is RSA-encrypted under the Storage Root
 *     Key (public operation => seal is cheap, matching the paper);
 *   - the payload is XORed with crypto::hmacSha256Xor's counter-mode
 *     stream under the inner key, prefix str("stream");
 *   - the PCR policy travels in the clear but is bound by an HMAC trailer;
 *   - unseal performs the SRK *private* operation (the paper's dominant
 *     unseal cost) and releases the payload only if the policy PCRs match.
 */

#ifndef MINTCB_TPM_BLOB_HH
#define MINTCB_TPM_BLOB_HH

#include <cstdint>
#include <vector>

#include "common/result.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "crypto/rsa.hh"

namespace mintcb::tpm
{

/** One entry of a seal-time PCR policy. */
struct PcrBinding
{
    std::uint32_t index;  //!< PCR number (or sePCR handle, Section 5.4.4)
    Bytes digestAtRelease; //!< required 20-byte PCR value at unseal time

    bool
    operator==(const PcrBinding &o) const
    {
        return index == o.index && digestAtRelease == o.digestAtRelease;
    }
};

/** PCR policy: every listed PCR must hold the listed value to unseal. */
using SealPolicy = std::vector<PcrBinding>;

/** An encrypted, integrity-protected, PCR-bound data blob. */
struct SealedBlob
{
    /** Set when the policy indices name sePCR handles instead of ordinary
     *  PCRs (recommended-architecture sealing, Section 5.4.4). */
    bool sePcrBound = false;

    Bytes encryptedInnerKey; //!< RSA ciphertext under the SRK
    SealPolicy policy;       //!< in the clear, MAC-protected
    Bytes ciphertext;        //!< stream-encrypted payload
    Bytes mac;               //!< HMAC-SHA256 over all of the above

    Bytes encode() const;
    static Result<SealedBlob> decode(const Bytes &wire);
};

/**
 * Construct a sealed blob. @p rng supplies the inner key. This is the
 * crypto core of TPM_Seal; the Tpm front end adds timing and policy
 * capture.
 */
SealedBlob sealBlob(const crypto::RsaPublicKey &srk, Rng &rng,
                    const Bytes &payload, const SealPolicy &policy,
                    bool se_pcr_bound = false);

/**
 * Recover the payload of @p blob using the SRK private key. Fails with
 * integrityFailure if the blob was tampered with. PCR policy checking is
 * the Tpm front end's job (it owns the PCR bank); this function returns
 * the payload and lets the caller enforce policy.
 */
Result<Bytes> unsealBlob(const crypto::RsaPrivateKey &srk,
                         const SealedBlob &blob);

/**
 * Why an unseal (Tpm::unseal / unsealBlob / SealedBlob::decode) failed.
 * Mirrors the verifyQuote bool->Status split: every refusal carries a
 * structured diagnosis a caller can branch on, so "the OS moved my
 * PCRs" (recoverable by relaunching the PAL), "the disk fed me garbage"
 * (restore from a replica), and "someone tampered with the ciphertext"
 * (raise the alarm) stop collapsing into one opaque error.
 */
enum class UnsealFault
{
    none,          //!< the error is not an unseal diagnosis
    wrongPcr,      //!< a policy PCR does not hold the sealed value
    corruptBlob,   //!< structural damage: bad magic, truncation,
                   //!< or an inner key that no longer decrypts
    badMac,        //!< well-formed blob, but the HMAC trailer mismatches
    sePcrBound,    //!< blob requires the sePCR extension to unseal
};

/** Printable diagnosis name (logs, tests). */
const char *unsealFaultName(UnsealFault fault);

/**
 * Classify an unseal error into its fault category. Errors produced by
 * anything other than the unseal path map to UnsealFault::none.
 */
UnsealFault classifyUnsealError(const Error &error);

} // namespace mintcb::tpm

#endif // MINTCB_TPM_BLOB_HH
