/**
 * @file
 * Event log implementation.
 */

#include "tpm/eventlog.hh"

#include "common/bytebuf.hh"
#include "crypto/sha1.hh"
#include "tpm/pcr.hh"

namespace mintcb::tpm
{

Bytes
MeasuredEvent::encode() const
{
    ByteWriter w;
    w.u32(pcrIndex);
    w.str(description);
    w.lengthPrefixed(measurement);
    return w.take();
}

std::map<std::size_t, Bytes>
EventLog::replay() const
{
    std::map<std::size_t, Bytes> pcrs;
    for (const MeasuredEvent &e : events_) {
        Bytes &value = pcrs[e.pcrIndex];
        if (value.empty())
            value.assign(crypto::sha1DigestSize, 0x00); // boot value
        value = extendPcr(value, e.measurement);
    }
    return pcrs;
}

Bytes
EventLog::encode() const
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(events_.size()));
    for (const MeasuredEvent &e : events_)
        w.lengthPrefixed(e.encode());
    return w.take();
}

Result<EventLog>
EventLog::decode(const Bytes &wire)
{
    ByteReader r(wire);
    EventLog log;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const Bytes entry = r.getLengthPrefixed();
        if (!r.ok())
            break;
        ByteReader er(entry);
        MeasuredEvent e;
        e.pcrIndex = er.getU32();
        e.description = er.getStr();
        e.measurement = er.getLengthPrefixed();
        if (auto s = er.finish(Errc::integrityFailure,
                               "trailing bytes in event-log entry");
            !s.ok()) {
            return s.error();
        }
        log.append(std::move(e));
    }
    return r.finish(std::move(log), Errc::integrityFailure,
                    "trailing event-log bytes");
}

} // namespace mintcb::tpm
