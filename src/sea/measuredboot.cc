/**
 * @file
 * Measured boot implementation.
 */

#include "sea/measuredboot.hh"

#include <algorithm>
#include <set>

#include "crypto/sha1.hh"

namespace mintcb::sea
{

MeasuredBoot::MeasuredBoot(machine::Machine &machine) : machine_(machine)
{
}

Status
MeasuredBoot::loadComponent(BootLayer layer, const std::string &name,
                            const Bytes &image, CpuId cpu)
{
    if (!machine_.hasTpm())
        return Error(Errc::unavailable, "measured boot requires a TPM");
    const Bytes measurement = crypto::Sha1::digestBytes(image);
    const auto pcr = static_cast<std::uint32_t>(layer);
    if (auto s = machine_.tpmAs(cpu).pcrExtend(pcr, measurement); !s.ok())
        return s;
    log_.append({pcr, name, measurement});
    return okStatus();
}

Status
MeasuredBoot::bootTypicalStack(CpuId cpu)
{
    // A representative 2007 stack; every layer below the application is
    // in the application's TCB under trusted boot (Section 1's layered
    // architecture complaint).
    struct Component
    {
        BootLayer layer;
        const char *name;
        std::size_t bytes;
    };
    const Component stack[] = {
        {BootLayer::bios, "bios-1.24", 512 * 1024 / 8},
        {BootLayer::firmware, "nic-oprom", 16 * 1024},
        {BootLayer::firmware, "raid-oprom", 24 * 1024},
        {BootLayer::bootloader, "grub-stage1", 512},
        {BootLayer::bootloader, "grub-stage2", 120 * 1024},
        {BootLayer::kernel, "vmlinuz-2.6.20", 1800 * 1024 / 8},
        {BootLayer::kernel, "initrd", 900 * 1024 / 8},
        {BootLayer::application, "init", 40 * 1024},
        {BootLayer::application, "sshd", 300 * 1024 / 8},
    };
    Rng rng(0xb007);
    for (const Component &c : stack) {
        if (auto s = loadComponent(c.layer, c.name, rng.bytes(c.bytes),
                                   cpu);
            !s.ok()) {
            return s;
        }
    }
    return okStatus();
}

std::vector<std::size_t>
MeasuredBoot::coveredPcrs() const
{
    std::set<std::size_t> indices;
    for (const tpm::MeasuredEvent &e : log_.events())
        indices.insert(e.pcrIndex);
    return std::vector<std::size_t>(indices.begin(), indices.end());
}

Result<Attestation>
MeasuredBoot::attest(const Bytes &nonce, CpuId cpu)
{
    if (!machine_.hasTpm())
        return Error(Errc::unavailable, "no TPM to quote");
    auto quote = machine_.tpmAs(cpu).quote(nonce, coveredPcrs());
    if (!quote)
        return quote.error();
    if (!aikCert_) {
        aikCert_ = PrivacyCa::instance().issue(machine_.tpm().aikPublic(),
                                               "trusted-boot-platform");
    }
    Attestation a;
    a.quote = quote.take();
    a.aikCert = *aikCert_;
    return a;
}

void
BootVerifier::trustComponent(const std::string &name, Bytes measurement)
{
    whitelist_[name] = std::move(measurement);
}

Status
BootVerifier::verify(const Attestation &attestation,
                     const tpm::EventLog &log,
                     const Bytes &expected_nonce) const
{
    if (auto s = PrivacyCa::instance().validate(attestation.aikCert);
        !s.ok()) {
        return s.error();
    }
    auto aik = crypto::RsaPublicKey::decode(attestation.aikCert.aikPublic);
    if (!aik)
        return aik.error();
    if (auto s = tpm::verifyQuote(*aik, attestation.quote,
                                  expected_nonce);
        !s.ok()) {
        return s.error();
    }

    // Replay the log and require the quoted PCRs to match exactly.
    const auto replayed = log.replay();
    for (std::size_t i = 0; i < attestation.quote.selection.size(); ++i) {
        auto it = replayed.find(attestation.quote.selection[i]);
        if (it == replayed.end() ||
            it->second != attestation.quote.values[i]) {
            return Error(Errc::integrityFailure,
                         "event log does not reproduce the quoted PCRs");
        }
    }

    // Every logged component must be known good -- the whole stack is
    // in the TCB.
    for (const tpm::MeasuredEvent &e : log.events()) {
        auto it = whitelist_.find(e.description);
        if (it == whitelist_.end()) {
            return Error(Errc::permissionDenied,
                         "unknown component in boot log: " +
                             e.description);
        }
        if (it->second != e.measurement) {
            return Error(Errc::permissionDenied,
                         "component measurement mismatch: " +
                             e.description);
        }
    }
    return okStatus();
}

} // namespace mintcb::sea
