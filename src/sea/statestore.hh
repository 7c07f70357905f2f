/**
 * @file
 * The PAL state hook: durable sealed state as a service.
 *
 * The paper's PALs protect state across invocations by sealing it and
 * handing the blob to the untrusted OS (Section 3.3) -- but "the OS
 * keeps it somewhere" was, until now, a std::vector in the calling
 * process. SealedStateStore is the narrow interface through which a
 * PAL's untrusted front end (SecureKvStore::attachPersistence), or a
 * body that captured a store when it was registered, hands sealed
 * bytes to a *durable* home: the store engine journals them through
 * its write-ahead log, so they survive process death and detect
 * rollback. Requests, PalContext and the rec scheduler carry no store;
 * the interface lives down here in sea so front ends can depend on it
 * without knowing the engine exists; src/store implements it above.
 */

#ifndef MINTCB_SEA_STATESTORE_HH
#define MINTCB_SEA_STATESTORE_HH

#include <string>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb::sea
{

/** Durable keyed storage for sealed PAL state. Implementations own
 *  durability, freshness (rollback detection), and crash atomicity;
 *  callers own the sealing -- values are opaque bytes here. */
class SealedStateStore
{
  public:
    virtual ~SealedStateStore() = default;

    /** Fetch the current value under @p name (notFound if absent). */
    virtual Result<Bytes> loadSealedState(const std::string &name) = 0;

    /** Durably record @p sealed as the new value under @p name. On
     *  return the value survives process death. */
    virtual Status storeSealedState(const std::string &name,
                                    const Bytes &sealed) = 0;

    /** Is a value present under @p name? Never touches durable media. */
    virtual bool hasSealedState(const std::string &name) const = 0;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_STATESTORE_HH
