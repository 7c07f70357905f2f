/**
 * @file
 * PCR bank implementation.
 */

#include "tpm/pcr.hh"

#include "common/bytebuf.hh"
#include "crypto/sha1.hh"

namespace mintcb::tpm
{

PcrValue
extendPcr(const PcrValue &value, const Bytes &measurement)
{
    crypto::Sha1 ctx;
    ctx.update(value);
    ctx.update(measurement);
    const auto digest = ctx.finish();
    return PcrValue(digest.begin(), digest.end());
}

void
PcrBank::reboot()
{
    for (std::size_t i = 0; i < pcrCount; ++i) {
        const std::uint8_t fill = dynamic(i) ? 0xff : 0x00;
        values_[i].assign(crypto::sha1DigestSize, fill);
    }
}

Result<PcrValue>
PcrBank::read(std::size_t index) const
{
    if (!valid(index))
        return Error(Errc::invalidArgument, "PCR index out of range");
    return values_[index];
}

Status
PcrBank::extend(std::size_t index, const Bytes &measurement)
{
    if (!valid(index))
        return Error(Errc::invalidArgument, "PCR index out of range");
    if (measurement.size() != crypto::sha1DigestSize) {
        return Error(Errc::invalidArgument,
                     "PCR extend requires a 20-byte SHA-1 digest");
    }
    values_[index] = extendPcr(values_[index], measurement);
    return okStatus();
}

Status
PcrBank::resetDynamic(std::size_t index)
{
    if (!valid(index))
        return Error(Errc::invalidArgument, "PCR index out of range");
    if (!dynamic(index)) {
        return Error(Errc::permissionDenied,
                     "only PCRs 17-23 are dynamically resettable");
    }
    values_[index].assign(crypto::sha1DigestSize, 0x00);
    return okStatus();
}

Result<Bytes>
PcrBank::composite(const std::vector<std::size_t> &selection) const
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(selection.size()));
    for (std::size_t index : selection) {
        auto value = read(index);
        if (!value)
            return value.error();
        w.u32(static_cast<std::uint32_t>(index));
        w.raw(*value);
    }
    return crypto::Sha1::digestBytes(w.bytes());
}

} // namespace mintcb::tpm
