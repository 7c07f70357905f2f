/**
 * @file
 * A rollback-protected secure key-value store.
 *
 * The most demanding composition of the paper's primitives: every
 * mutation runs inside a PAL, the whole store travels as one sealed
 * blob bound to the PAL's identity, and a TPM monotonic counter embedded
 * in the sealed state defeats the untrusted OS's last move -- replaying
 * yesterday's store. This is the "protect application state across
 * context switches" problem of Section 3.3 taken to its logical
 * conclusion.
 */

#ifndef MINTCB_APPS_KVSTORE_PAL_HH
#define MINTCB_APPS_KVSTORE_PAL_HH

#include <map>
#include <string>

#include "common/result.hh"
#include "sea/session.hh"
#include "sea/statestore.hh"

namespace mintcb::apps
{

/** The store's key/value map, as sealed inside the PAL. */
using KvMap = std::map<std::string, Bytes>;

/** @name The sealed image: u64 version | u32 count | count x
 *  (str key, lengthPrefixed value), keys in map order. Only ever
 *  decoded inside the PAL, after unseal. @{ */
Bytes encodeKvImage(std::uint64_t version, const KvMap &store);
Result<std::pair<std::uint64_t, KvMap>> decodeKvImage(const Bytes &wire);
/** @} */

/** The secure store service (untrusted front end). */
class SecureKvStore
{
  public:
    explicit SecureKvStore(sea::SeaDriver &driver);

    /**
     * Attach a durable home for the sealed image *and* the chip NV
     * (counter) state. Must be called before initialize(): with a
     * store attached, initialize() restores a previous incarnation
     * when one is present -- so the kvstore survives process restarts,
     * not just context switches -- and every mutation re-persists.
     */
    Status attachPersistence(sea::SealedStateStore &store);

    /** True when initialize() restored a previous incarnation instead
     *  of creating a fresh store. */
    bool restored() const { return restored_; }

    /** Create an empty store: binds a fresh monotonic counter and seals
     *  version 1. With persistence attached, restores instead when a
     *  previous incarnation is present. */
    Status initialize(CpuId cpu = 0);

    /** In-PAL: unseal, check freshness, insert/overwrite, bump the
     *  counter, reseal. */
    Status put(const std::string &key, const Bytes &value,
               CpuId cpu = 0);

    /** In-PAL: unseal, check freshness, look up. */
    Result<Bytes> get(const std::string &key, CpuId cpu = 0);

    /** In-PAL: unseal, check freshness, erase, bump, reseal. */
    Status remove(const std::string &key, CpuId cpu = 0);

    /** Number of keys (requires a session; reads the sealed state). */
    Result<std::size_t> size(CpuId cpu = 0);

    /** The opaque sealed image the OS stores (for attack experiments). */
    const Bytes &sealedImage() const { return sealedImage_; }
    /** Replace the stored image (models disk tampering / replay). */
    void setSealedImage(Bytes image) { sealedImage_ = std::move(image); }

  private:
    /** Operations tunneled into the PAL. */
    enum class Op : std::uint8_t
    {
        init = 0,
        put = 1,
        get = 2,
        remove = 3,
        size = 4,
    };

    Result<Bytes> session(Op op, const std::string &key,
                          const Bytes &value, CpuId cpu);
    Status persistNow();
    Status restoreFromPersistence();

    sea::SeaDriver &driver_;
    bool initialized_ = false;
    bool restored_ = false;
    std::uint32_t counterHandle_ = 0;
    Bytes sealedImage_;
    sea::SealedStateStore *persist_ = nullptr;
};

} // namespace mintcb::apps

#endif // MINTCB_APPS_KVSTORE_PAL_HH
