/**
 * @file
 * PAL registry implementation.
 */

#include "net/registry.hh"

namespace mintcb::net
{

void
PalRegistry::add(std::string name, std::size_t code_bytes,
                 sea::PalBody body, sea::SecureBody secure_body)
{
    Entry entry{sea::Pal::fromLogic(std::move(name), code_bytes,
                                    std::move(body)),
                std::move(secure_body)};
    for (Entry &e : entries_) {
        if (e.pal.name() == entry.pal.name()) {
            e = std::move(entry);
            return;
        }
    }
    entries_.push_back(std::move(entry));
}

void
PalRegistry::addEcho(const std::string &name, std::size_t code_bytes)
{
    add(
        name, code_bytes,
        [](sea::PalContext &ctx) {
            ctx.setOutput(ctx.input());
            return okStatus();
        },
        [](rec::PalHooks &, const Bytes &input) -> Result<Bytes> {
            return input;
        });
}

const PalRegistry::Entry *
PalRegistry::find(const std::string &name) const
{
    for (const Entry &e : entries_) {
        if (e.pal.name() == name)
            return &e;
    }
    return nullptr;
}

bool
PalRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
PalRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.pal.name());
    return out;
}

Result<sea::PalRequest>
PalRegistry::build(const WireRequest &wire_request) const
{
    const Entry *entry = find(wire_request.palName);
    if (!entry) {
        return Error(Errc::notFound, "no PAL registered under '" +
                                         wire_request.palName + "'");
    }
    sea::PalRequest req(entry->pal, wire_request.input);
    req.backend = wire_request.backend.empty() ? defaultBackend_
                                               : wire_request.backend;
    req.affinity = wire_request.affinity;
    req.priority = wire_request.priority;
    req.wantQuote = wire_request.wantQuote;
    req.dataPages = wire_request.dataPages;
    req.slicedCompute =
        Duration::picos(wire_request.slicedComputeTicks);
    if (wire_request.deadlineTicks != 0) {
        req.deadline =
            TimePoint() + Duration::picos(static_cast<std::int64_t>(
                              wire_request.deadlineTicks));
    }
    req.secureBody = entry->secureBody;
    return req;
}

} // namespace mintcb::net
