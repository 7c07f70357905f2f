/**
 * @file
 * Scenario: a rollback-protected secret store that survives restarts.
 *
 * Every operation runs in a PAL; the store travels as a sealed blob.
 * What is new here is where the blob *lives*: a durable sealed-state
 * engine (src/store) journals it through a write-ahead log, so the
 * secrets survive process death -- and because the engine pins its
 * epoch to a hardware counter in chip NVRAM, handing it yesterday's
 * directory is a typed refusal, not a silent resurrection.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "apps/kvstore_pal.hh"
#include "common/hex.hh"
#include "store/engine.hh"

using namespace mintcb;

namespace
{

bool
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    if (!in)
        return false;
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    return static_cast<bool>(out);
}

/** Removes the scenario's temporary directory on every exit path. */
struct RemoveOnExit
{
    std::string path;
    ~RemoveOnExit()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

} // namespace

int
main()
{
    char dirTemplate[] = "/tmp/mintcb-kvstore-XXXXXX";
    if (::mkdtemp(dirTemplate) == nullptr) {
        std::perror("mkdtemp");
        return 1;
    }
    const RemoveOnExit cleanup{dirTemplate};
    const std::string dir = std::string(dirTemplate) + "/state";
    store::StoreConfig config;
    config.dir = dir;

    // ===== Process 1: create the store, stash two credentials. =====
    {
        auto engine = store::SealedStore::open(config);
        if (!engine) {
            std::fprintf(stderr, "open failed: %s\n",
                         engine.error().str().c_str());
            return 1;
        }
        auto machine = machine::Machine::forPlatform(
            machine::PlatformId::hpDc5750);
        sea::SeaDriver driver(machine);
        apps::SecureKvStore kv(driver);
        kv.attachPersistence(**engine);

        if (auto s = kv.initialize(); !s.ok()) {
            std::fprintf(stderr, "init failed: %s\n",
                         s.error().str().c_str());
            return 1;
        }
        std::printf("Store initialized (sealed, version-counted, "
                    "journaled to %s).\n\n",
                    dir.c_str());

        const TimePoint t0 = machine.cpu(0).now();
        kv.put("deploy-key", asciiBytes("ssh-ed25519 AAAA..."));
        kv.put("db-password", asciiBytes("hunter2"));
        const Duration two_puts = machine.cpu(0).now() - t0;
        std::printf("2 puts took %s of simulated time (each is a full "
                    "launch+unseal+reseal\nsession on 2007 "
                    "hardware).\n\n",
                    two_puts.str().c_str());
    } // process 1 exits; every in-memory byte is gone

    // ===== Process 2: restart, recover, revoke a credential. =====
    std::printf("== Process restart ==\n");
    {
        auto engine = store::SealedStore::open(config);
        if (!engine) {
            std::fprintf(stderr, "reopen failed: %s\n",
                         engine.error().str().c_str());
            return 1;
        }
        std::printf("engine recovered at epoch %llu: %zu sealed "
                    "entries replayed from the WAL\n",
                    static_cast<unsigned long long>((*engine)->epoch()),
                    (*engine)->size());

        auto machine = machine::Machine::forPlatform(
            machine::PlatformId::hpDc5750);
        sea::SeaDriver driver(machine);
        apps::SecureKvStore kv(driver);
        kv.attachPersistence(**engine);
        if (auto s = kv.initialize(); !s.ok()) {
            std::fprintf(stderr, "restore failed: %s\n",
                         s.error().str().c_str());
            return 1;
        }
        if (!kv.restored()) {
            std::fprintf(stderr,
                         "BUG: restart created a fresh store\n");
            return 1;
        }
        auto key = kv.get("deploy-key");
        if (!key) {
            std::fprintf(stderr, "get failed after restart: %s\n",
                         key.error().str().c_str());
            return 1;
        }
        std::printf("get(deploy-key) -> \"%.*s\"  (survived the "
                    "restart)\n\n",
                    static_cast<int>(key->size()),
                    reinterpret_cast<const char *>(key->data()));

        // The OS squirrels away today's disk before the revocation.
        std::printf("== Credential revocation vs a replaying OS ==\n");
        const std::string walCopy = dir + "/wal.stale";
        const std::string snapCopy = dir + "/snapshot.stale";
        copyFile((*engine)->walPath(), walCopy);
        copyFile((*engine)->snapshotPath(), snapCopy);

        if (auto s = kv.remove("db-password"); !s.ok()) {
            std::fprintf(stderr, "remove failed: %s\n",
                         s.error().str().c_str());
            return 1;
        }
        std::printf("db-password revoked; store has %zu keys\n",
                    *kv.size());

        // The OS swaps the pre-revocation files back...
        copyFile(walCopy, (*engine)->walPath());
        copyFile(snapCopy, (*engine)->snapshotPath());
    }

    // ===== Process 3: the replayed disk meets the hardware counter. =====
    {
        auto engine = store::SealedStore::open(config);
        if (engine) {
            std::printf("OS replays the pre-revocation directory: "
                        "credential RESURRECTED (bug!)\n");
            return 1;
        }
        std::printf("OS replays the pre-revocation directory: %s\n",
                    engine.error().str().c_str());
    }
    return 0;
}
