/**
 * @file
 * Secure KV store implementation.
 *
 * Sealed state layout: u64 version | u32 count | count x (key, value).
 * The PAL refuses state whose version trails the hardware counter.
 */

#include "apps/kvstore_pal.hh"

#include <map>

#include "common/bytebuf.hh"

namespace mintcb::apps
{

Bytes
encodeKvImage(std::uint64_t version, const KvMap &store)
{
    ByteWriter w;
    w.u64(version);
    w.u32(static_cast<std::uint32_t>(store.size()));
    for (const auto &[key, value] : store) {
        w.str(key);
        w.lengthPrefixed(value);
    }
    return w.take();
}

Result<std::pair<std::uint64_t, KvMap>>
decodeKvImage(const Bytes &wire)
{
    ByteReader r(wire);
    const std::uint64_t version = r.getU64();
    KvMap store;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string key = r.getStr();
        Bytes value = r.getLengthPrefixed();
        if (!r.ok())
            break;
        store.emplace(std::move(key), std::move(value));
    }
    return r.finish(std::make_pair(version, std::move(store)),
                    Errc::integrityFailure, "trailing store bytes");
}

namespace
{

/** Per-op modeled compute. */
constexpr Duration opCost = Duration::micros(40);

/** Names under which a persistent incarnation lives in its store. */
constexpr const char *kvImageKey = "kvstore/image";
constexpr const char *kvCounterKey = "kvstore/counter";
constexpr const char *kvNvKey = "kvstore/tpmnv";

} // namespace

SecureKvStore::SecureKvStore(sea::SeaDriver &driver) : driver_(driver)
{
}

Result<Bytes>
SecureKvStore::session(Op op, const std::string &key, const Bytes &value,
                       CpuId cpu)
{
    const std::uint32_t counter = counterHandle_;
    const Bytes state_in = sealedImage_;

    // One PAL identity for every operation: the store must unseal across
    // operations, so all flows share (name, codeBytes).
    const sea::Pal pal = sea::Pal::fromLogic(
        "secure-kvstore-pal", 10 * 1024,
        [op, key, value, counter,
         state_in](sea::PalContext &ctx) -> Status {
            std::uint64_t version = 0;
            KvMap store;

            if (op != Op::init) {
                auto blob = tpm::SealedBlob::decode(state_in);
                if (!blob)
                    return blob.error();
                auto wire = ctx.unsealState(*blob);
                if (!wire)
                    return wire.error();
                auto decoded = decodeKvImage(*wire);
                if (!decoded)
                    return decoded.error();
                version = decoded->first;
                store = std::move(decoded->second);

                // Freshness: the sealed version must match the hardware
                // counter exactly; anything lower is a replayed image.
                auto hw = ctx.tpm().counterRead(counter);
                if (!hw)
                    return hw.error();
                if (version < *hw) {
                    return Error(Errc::integrityFailure,
                                 "stale store image: rollback detected");
                }
            }

            ctx.compute(opCost);
            ByteWriter out;
            bool mutate = false;
            switch (op) {
              case Op::init:
                mutate = true;
                break;
              case Op::put:
                store[key] = value;
                mutate = true;
                break;
              case Op::remove:
                if (store.erase(key) == 0) {
                    return Error(Errc::notFound,
                                 "no such key: " + key);
                }
                mutate = true;
                break;
              case Op::get: {
                  auto it = store.find(key);
                  if (it == store.end()) {
                      return Error(Errc::notFound,
                                   "no such key: " + key);
                  }
                  out.u8(0);
                  out.lengthPrefixed(it->second);
                  break;
              }
              case Op::size: {
                  ByteWriter inner;
                  inner.u32(static_cast<std::uint32_t>(store.size()));
                  out.u8(0);
                  out.lengthPrefixed(inner.bytes());
                  break;
              }
            }

            if (mutate) {
                auto next = ctx.tpm().counterIncrement(counter);
                if (!next)
                    return next.error();
                auto blob = ctx.sealState(encodeKvImage(*next, store));
                if (!blob)
                    return blob.error();
                out.u8(1);
                out.lengthPrefixed(blob->encode());
            }
            ctx.setOutput(out.take());
            return okStatus();
        });

    auto report = driver_.run(sea::PalRequest(std::move(pal)), cpu);
    if (!report)
        return report.error();
    if (!report->status.ok())
        return report->status.error();

    ByteReader r(report->output);
    const std::uint8_t kind = r.getU8();
    Bytes payload = r.getLengthPrefixed();
    if (!r.ok())
        return r.error();
    if (kind == 1) {
        sealedImage_ = std::move(payload);
        if (auto s = persistNow(); !s.ok())
            return s.error();
        return Bytes{};
    }
    return payload;
}

Status
SecureKvStore::attachPersistence(sea::SealedStateStore &store)
{
    if (initialized_) {
        return Error(Errc::failedPrecondition,
                     "attach persistence before initialize()");
    }
    persist_ = &store;
    return okStatus();
}

Status
SecureKvStore::persistNow()
{
    if (persist_ == nullptr)
        return okStatus();
    // Image first, chip NV second: a crash between the two leaves the
    // durable counter *behind* the image version, which the freshness
    // check accepts (version >= counter); the other order would make
    // every such crash indistinguishable from a rollback attack.
    if (auto s = persist_->storeSealedState(kvImageKey, sealedImage_);
        !s.ok()) {
        return s;
    }
    ByteWriter handle;
    handle.u32(counterHandle_);
    if (auto s = persist_->storeSealedState(kvCounterKey,
                                            handle.take());
        !s.ok()) {
        return s;
    }
    return persist_->storeSealedState(
        kvNvKey, driver_.machine().tpm().exportNvState());
}

Status
SecureKvStore::restoreFromPersistence()
{
    auto nv = persist_->loadSealedState(kvNvKey);
    if (!nv)
        return nv.error();
    if (auto s = driver_.machine().tpm().importNvState(*nv); !s.ok())
        return s;
    auto handleWire = persist_->loadSealedState(kvCounterKey);
    if (!handleWire)
        return handleWire.error();
    ByteReader r(*handleWire);
    const std::uint32_t handle = r.getU32();
    // Short or overlong, the refusal is the same.
    if (!r.finish(Errc::integrityFailure, "").ok()) {
        return Error(Errc::integrityFailure,
                     "malformed persisted counter handle");
    }
    auto image = persist_->loadSealedState(kvImageKey);
    if (!image)
        return image.error();
    counterHandle_ = handle;
    sealedImage_ = image.take();
    initialized_ = true;
    restored_ = true;
    return okStatus();
}

Status
SecureKvStore::initialize(CpuId cpu)
{
    if (initialized_) {
        return Error(Errc::failedPrecondition,
                     "store already initialized");
    }
    if (persist_ != nullptr && persist_->hasSealedState(kvImageKey))
        return restoreFromPersistence();
    auto counter = driver_.machine().tpm().counterCreate();
    if (!counter)
        return counter.error();
    counterHandle_ = *counter;
    auto out = session(Op::init, {}, {}, cpu);
    if (!out)
        return out.error();
    initialized_ = true;
    return okStatus();
}

Status
SecureKvStore::put(const std::string &key, const Bytes &value, CpuId cpu)
{
    if (!initialized_)
        return Error(Errc::failedPrecondition, "store not initialized");
    auto out = session(Op::put, key, value, cpu);
    if (!out)
        return out.error();
    return okStatus();
}

Result<Bytes>
SecureKvStore::get(const std::string &key, CpuId cpu)
{
    if (!initialized_)
        return Error(Errc::failedPrecondition, "store not initialized");
    return session(Op::get, key, {}, cpu);
}

Status
SecureKvStore::remove(const std::string &key, CpuId cpu)
{
    if (!initialized_)
        return Error(Errc::failedPrecondition, "store not initialized");
    auto out = session(Op::remove, key, {}, cpu);
    if (!out)
        return out.error();
    return okStatus();
}

Result<std::size_t>
SecureKvStore::size(CpuId cpu)
{
    if (!initialized_)
        return Error(Errc::failedPrecondition, "store not initialized");
    auto out = session(Op::size, {}, {}, cpu);
    if (!out)
        return out.error();
    ByteReader r(*out);
    const std::uint32_t n = r.getU32();
    // Short or overlong, the refusal is the same.
    if (!r.finish(Errc::integrityFailure, "").ok())
        return Error(Errc::integrityFailure, "malformed size response");
    return static_cast<std::size_t>(n);
}

} // namespace mintcb::apps
