/**
 * @file
 * PAL implementation.
 */

#include "sea/pal.hh"

#include <cassert>

#include "common/hex.hh"
#include "crypto/sha1.hh"
#include "latelaunch/slb.hh"
#include "machine/vmswitch.hh"
#include "tpm/pcr.hh"

namespace mintcb::sea
{

Pal
Pal::fromLogic(std::string name, std::size_t code_bytes, PalBody body)
{
    // Deterministic code image: a SHA-1-seeded byte stream over the name,
    // so the measured identity tracks the logical identity.
    const Bytes seed = crypto::Sha1::digestBytes(asciiBytes(name));
    Rng rng(static_cast<std::uint64_t>(seed[0]) << 32 |
            static_cast<std::uint64_t>(seed[1]) << 24 |
            static_cast<std::uint64_t>(seed[2]) << 16 |
            static_cast<std::uint64_t>(seed[3]) << 8 | seed[4]);
    auto slb = latelaunch::Slb::wrap(rng.bytes(code_bytes));
    // PALs are size-validated at construction sites; an oversized PAL is
    // a programmer error here.
    assert(slb.ok() && "PAL exceeds the 64 KB SLB limit");
    auto identity = std::make_shared<Identity>();
    identity->name = std::move(name);
    identity->slbImage = slb->image();
    identity->measurement = crypto::Sha1::digestBytes(identity->slbImage);
    return Pal(std::move(identity), std::move(body));
}

Bytes
Pal::expectedPcr17() const
{
    return tpm::extendPcr(Bytes(crypto::sha1DigestSize, 0x00),
                          measurement());
}

PalContext::PalContext(machine::Machine &machine, CpuId cpu, Bytes input)
    : machine_(machine), cpu_(cpu), input_(std::move(input))
{
}

std::vector<std::size_t>
PalContext::identityPcrs() const
{
    if (machine_.spec().cpuVendor == machine::CpuVendor::intel)
        return {tpm::dynamicLaunchPcr, tpm::intelMlePcr};
    return {tpm::dynamicLaunchPcr};
}

Result<tpm::SealedBlob>
PalContext::sealState(const Bytes &state)
{
    if (!machine_.hasTpm()) {
        return Error(Errc::unavailable,
                     "sealed storage requires a TPM on this platform");
    }
    auto &the_tpm = tpm();
    const TimePoint start = cpu().now();
    auto blob = the_tpm.seal(state, identityPcrs());
    sealTime_ += cpu().now() - start;
    return blob;
}

Result<Bytes>
PalContext::unsealState(const tpm::SealedBlob &blob)
{
    if (!machine_.hasTpm()) {
        return Error(Errc::unavailable,
                     "sealed storage requires a TPM on this platform");
    }
    auto &the_tpm = tpm();
    const TimePoint start = cpu().now();
    auto state = the_tpm.unseal(blob);
    unsealTime_ += cpu().now() - start;
    return state;
}

} // namespace mintcb::sea
