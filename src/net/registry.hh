/**
 * @file
 * Gateway-side PAL registry.
 *
 * PAL *behavior* is native code and cannot travel over the wire; a
 * remote client names a PAL the operator registered and supplies only
 * the input bytes. The registry turns a WireRequest into the
 * sea::PalRequest the execution service runs. Because the registry is
 * an ordinary value, a test can hand the *same* registry to a gateway
 * and to a direct in-process submission loop and prove the reports
 * byte-identical (the end-to-end determinism acceptance check).
 */

#ifndef MINTCB_NET_REGISTRY_HH
#define MINTCB_NET_REGISTRY_HH

#include <string>
#include <vector>

#include "net/wire.hh"
#include "sea/request.hh"

namespace mintcb::net
{

/** Maps registered PAL names to executable behavior. */
class PalRegistry
{
  public:
    /** Register @p name with the given SLB code size and behaviors.
     *  The PAL's measured identity is built here, once; every build()
     *  shares it. Re-registering a name replaces the entry. */
    void add(std::string name, std::size_t code_bytes, sea::PalBody body,
             sea::SecureBody secure_body = nullptr);

    /** Convenience: a pure-compute PAL whose secure body echoes the
     *  request input back as the output (remote smoke tests). */
    void addEcho(const std::string &name, std::size_t code_bytes = 4096);

    bool has(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }
    std::vector<std::string> names() const;

    /** Execution backend applied to wire requests that leave their
     *  backend field empty (the operator's `mintcb-gate --backend`).
     *  Empty (default) keeps the service's native scheduler path. */
    void setDefaultBackend(std::string backend)
    {
        defaultBackend_ = std::move(backend);
    }
    const std::string &defaultBackend() const { return defaultBackend_; }

    /** Build the service request described by @p wire_request around
     *  the registered Pal (a shared copy, not a rebuild);
     *  Errc::notFound for an unregistered PAL name. */
    Result<sea::PalRequest> build(const WireRequest &wire_request) const;

  private:
    struct Entry
    {
        sea::Pal pal;
        sea::SecureBody secureBody;
    };

    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
    std::string defaultBackend_;
};

} // namespace mintcb::net

#endif // MINTCB_NET_REGISTRY_HH
