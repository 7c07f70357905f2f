/**
 * @file
 * mintcb-store: operator tooling for the durable sealed-state engine.
 *
 * Modes:
 *
 *   mintcb-store inspect <dir>    structural WAL/snapshot report --
 *                                 record counts, torn-tail diagnosis,
 *                                 snapshot container (CRC-checked),
 *                                 both chip-NV slots (generation, CRC,
 *                                 counter). Reads the raw files; never
 *                                 unseals. Exit 1 on a missing WAL, a
 *                                 torn log, a corrupt snapshot, a
 *                                 chip-NV file with no valid slot or
 *                                 any unreadable file.
 *   mintcb-store verify <dir>     full open: replay, MAC checks, the
 *                                 rollback test against the chip
 *                                 counter. Prints epoch/size/digest;
 *                                 exit 1 with the typed diagnosis on
 *                                 any refusal.
 *   mintcb-store compact <dir>    checkpoint + log compaction; prints
 *                                 the WAL size before and after.
 *   mintcb-store migrate <src> <dst>
 *                                 attested migration between two local
 *                                 directories: challenge, quote over
 *                                 the bound nonce, re-seal to the
 *                                 target SRK, adopt, invalidate <src>.
 *   mintcb-store --selftest       in-process smoke of all four modes
 *                                 plus the stale-replay rejection;
 *                                 exit 0 only if every step passes.
 *
 * Options: --seed N (store identity seed; migrate targets default to a
 * distinct lineage), --quiet (verify prints nothing on success).
 *
 * verify, compact and migrate's <src> open existing stores only: on a
 * missing WAL they exit 1 with inspect's message and create nothing.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common/file.hh"
#include "common/hex.hh"
#include "store/engine.hh"
#include "store/migrate.hh"
#include "store/wal.hh"
#include "tpm/tpm.hh"

namespace
{

using namespace mintcb;

store::StoreConfig
configFor(const std::string &dir, std::uint64_t seed)
{
    store::StoreConfig cfg;
    cfg.dir = dir;
    if (seed != 0)
        cfg.seed = seed;
    return cfg;
}

/** The config verify, compact and a migration source open with: an
 *  existing store only. */
store::StoreConfig
existingStore(const std::string &dir, std::uint64_t seed)
{
    store::StoreConfig cfg = configFor(dir, seed);
    cfg.createIfMissing = false;
    return cfg;
}

/** Print each chip-NV slot's generation, CRC verdict and counter;
 *  false when no slot is valid or the layout is wrong. */
bool
inspectChipNv(const Bytes &file)
{
    if (auto s = store::checkChipNvLayout(file); !s.ok()) {
        std::printf("  CORRUPT: %s\n", s.error().message.c_str());
        return false;
    }
    bool anyValid = false;
    for (std::size_t i = 0; i < store::nvSlotCount; ++i) {
        const auto begin = file.begin() + static_cast<std::ptrdiff_t>(
                                              i * store::nvSlotBytes);
        if (std::all_of(begin, begin + store::nvSlotBytes,
                        [](std::uint8_t b) { return b == 0; })) {
            std::printf("  slot %zu: empty (never written)\n", i);
            continue;
        }
        auto slot = store::decodeNvSlot(file, i);
        if (!slot) {
            std::printf("  slot %zu: CRC invalid (%s)\n", i,
                        slot.error().message.c_str());
            continue;
        }
        anyValid = true;
        const auto counters = tpm::Tpm::nvStateCounters(slot->body);
        std::string counter = "none";
        if (!counters)
            counter = "unreadable (" + counters.error().message + ")";
        else if (!counters->empty())
            counter = std::to_string(counters->front());
        std::printf("  slot %zu: generation %llu, CRC valid, counter %s\n",
                    i, static_cast<unsigned long long>(slot->epoch),
                    counter.c_str());
    }
    return anyValid;
}

/** Read one store file for inspect and print its size, or why it has
 *  none. A missing file prints @p absent, or is damage when that is
 *  null; any other failed read is damage. */
std::optional<Bytes>
readStoreFile(const char *label, const std::string &path,
              const char *absent, bool &damaged)
{
    auto bytes = readFile(path);
    if (bytes) {
        std::printf("%-9s %s (%zu bytes)\n", label, path.c_str(),
                    bytes->size());
        return bytes.take();
    }
    if (bytes.error().code == Errc::notFound && absent != nullptr) {
        std::printf("%-9s %s\n", label, absent);
    } else {
        std::printf("%-9s UNREADABLE: %s\n", label,
                    bytes.error().message.c_str());
        damaged = true;
    }
    return std::nullopt;
}

int
inspect(const std::string &dir)
{
    bool damaged = false;
    // Every opened store has a log, so a missing one is damage, not an
    // empty log: verify refuses a non-empty store without it.
    if (const auto wal =
            readStoreFile("wal:", dir + "/wal.mwl", nullptr, damaged)) {
        const store::WalScan scan = store::scanWal(*wal);
        std::size_t counts[5] = {0, 0, 0, 0, 0};
        for (const store::WalRecord &r : scan.records) {
            const auto t = static_cast<std::size_t>(r.type);
            ++counts[t < 5 ? t : 0];
        }
        std::printf("  records: %zu (keyBlob=%zu put=%zu remove=%zu "
                    "commit=%zu)\n",
                    scan.records.size(), counts[1], counts[2], counts[3],
                    counts[4]);
        if (scan.torn) {
            std::printf("  TORN tail after %zu clean bytes: %s\n",
                        scan.validBytes, scan.tornReason.c_str());
        } else {
            std::printf("  clean: every byte parsed\n");
        }
        damaged |= scan.torn;
    }

    // An empty snapshot is present, and decodes as corrupt.
    if (const auto snap = readStoreFile("snapshot:", dir + "/snapshot.mss",
                                        "none", damaged)) {
        auto container =
            store::EpochContainer::decode(store::snapshotFormat, *snap);
        if (container) {
            std::printf("  MSS1 v%u, clear epoch %llu (advisory; the "
                        "sealed epoch is authoritative)\n",
                        static_cast<unsigned>(store::snapshotVersion),
                        static_cast<unsigned long long>(
                            container->epoch));
        } else {
            damaged = true;
            std::printf("  CORRUPT: %s\n",
                        container.error().message.c_str());
        }
    }

    if (const auto nv = readStoreFile("chip NV:", dir + ".tpmnv",
                                      "none (fresh chip on next open)",
                                      damaged)) {
        damaged |= !inspectChipNv(*nv);
    }
    return damaged ? 1 : 0;
}

int
verify(const std::string &dir, std::uint64_t seed, bool quiet)
{
    auto opened = store::SealedStore::open(existingStore(dir, seed));
    if (!opened) {
        std::fprintf(stderr, "verify FAILED: %s\n",
                     opened.error().message.c_str());
        return 1;
    }
    if (!quiet) {
        std::printf("verify OK: epoch=%llu keys=%zu digest=%s\n",
                    static_cast<unsigned long long>((*opened)->epoch()),
                    (*opened)->size(),
                    toHex((*opened)->stateDigest()).c_str());
        std::printf("%s", (*opened)->stats().str().c_str());
    }
    return 0;
}

int
compact(const std::string &dir, std::uint64_t seed)
{
    auto opened = store::SealedStore::open(existingStore(dir, seed));
    if (!opened) {
        std::fprintf(stderr, "compact: open failed: %s\n",
                     opened.error().message.c_str());
        return 1;
    }
    const std::size_t before = (*opened)->syncedWalBytes();
    if (auto s = (*opened)->checkpoint(); !s.ok()) {
        std::fprintf(stderr, "compact: checkpoint failed: %s\n",
                     s.error().message.c_str());
        return 1;
    }
    const std::size_t after = (*opened)->syncedWalBytes();
    std::printf("compacted: wal %zu -> %zu bytes (epoch %llu, %zu "
                "keys)\n",
                before, after,
                static_cast<unsigned long long>((*opened)->epoch()),
                (*opened)->size());
    return 0;
}

int
migrate(const std::string &srcDir, const std::string &dstDir,
        std::uint64_t seed)
{
    // Only an existing store can be a source: opening a missing one
    // would create an empty store here and then invalidate it.
    auto source = store::SealedStore::open(existingStore(srcDir, 0));
    if (!source) {
        std::fprintf(stderr, "migrate: source open failed: %s\n",
                     source.error().message.c_str());
        return 1;
    }
    // The target must be its own TPM lineage; re-sealing to the same
    // SRK would defeat the exercise (and the default collides).
    auto target = store::SealedStore::open(
        configFor(dstDir, seed != 0 ? seed : 0x4d544754));
    if (!target) {
        std::fprintf(stderr, "migrate: target open failed: %s\n",
                     target.error().message.c_str());
        return 1;
    }

    store::MigrationAuthority authority(**source);
    const Bytes nonce = authority.beginChallenge();
    auto attestation = (*target)->attestForMigration(nonce);
    if (!attestation) {
        std::fprintf(stderr, "migrate: target quote failed: %s\n",
                     attestation.error().message.c_str());
        return 1;
    }
    auto bundle =
        authority.complete(nonce, (*target)->srkPublicEncoded(),
                           attestation->encode());
    if (!bundle) {
        std::fprintf(stderr, "migrate: source refused: %s\n",
                     bundle.error().message.c_str());
        return 1;
    }
    if (auto s = store::MigrationAuthority::adopt(**target, *bundle);
        !s.ok()) {
        std::fprintf(stderr, "migrate: adopt failed: %s\n",
                     s.error().message.c_str());
        return 1;
    }
    std::printf("migrated: %zu keys now at %s (epoch %llu); %s is "
                "permanently invalidated\n",
                (*target)->size(), dstDir.c_str(),
                static_cast<unsigned long long>((*target)->epoch()),
                srcDir.c_str());
    return 0;
}

int
selftest()
{
    std::string tmpl = "/tmp/mintcb-store-selftest-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
        std::fprintf(stderr, "FAIL: mkdtemp\n");
        return 1;
    }
    struct Cleanup
    {
        std::string root;
        ~Cleanup()
        {
            std::error_code ec;
            std::filesystem::remove_all(root, ec);
        }
    } cleanup{tmpl};

    const std::string src = tmpl + "/a";
    const std::string dst = tmpl + "/b";

    {
        auto s = store::SealedStore::open(configFor(src, 0));
        if (!s) {
            std::fprintf(stderr, "FAIL: open: %s\n",
                         s.error().message.c_str());
            return 1;
        }
        for (int i = 0; i < 8; ++i) {
            if (!(*s)->put("key-" + std::to_string(i),
                           asciiBytes("value-" + std::to_string(i)))
                     .ok() ||
                !(*s)->commit().ok()) {
                std::fprintf(stderr, "FAIL: put/commit %d\n", i);
                return 1;
            }
        }
    }
    if (inspect(src) != 0) {
        std::fprintf(stderr, "FAIL: inspect reported a torn log or a "
                             "corrupt snapshot\n");
        return 1;
    }
    if (compact(src, 0) != 0) {
        std::fprintf(stderr, "FAIL: compact\n");
        return 1;
    }
    if (verify(src, 0, /*quiet=*/true) != 0) {
        std::fprintf(stderr, "FAIL: verify after compact\n");
        return 1;
    }
    // inspect must refuse what verify refuses: an empty snapshot, a
    // deleted WAL or a chip-NV file with no valid slot is damage, not
    // an absent file.
    const std::string fresh = tmpl + "/fresh";
    const std::string emptySnap = tmpl + "/empty-snapshot";
    const std::string noWal = tmpl + "/no-wal";
    const std::string badNv = tmpl + "/bad-nv";
    if (!store::SealedStore::open(configFor(fresh, 0)).ok()) {
        std::fprintf(stderr, "FAIL: open a fresh store\n");
        return 1;
    }
    std::filesystem::copy(src, emptySnap);
    std::filesystem::copy(src, noWal);
    std::filesystem::copy(src, badNv);
    std::filesystem::copy(src + ".tpmnv", badNv + ".tpmnv");
    std::filesystem::resize_file(emptySnap + "/snapshot.mss", 0);
    std::filesystem::remove(noWal + "/wal.mwl");
    std::filesystem::resize_file(badNv + ".tpmnv", 0);
    std::filesystem::resize_file(badNv + ".tpmnv",
                                 store::nvSlotCount * store::nvSlotBytes);
    if (verify(fresh, 0, true) != 0 || inspect(fresh) != 0 ||
        inspect(src) != 0 || verify(emptySnap, 0, true) != 1 ||
        inspect(emptySnap) != 1 || verify(noWal, 0, true) != 1 ||
        inspect(noWal) != 1 || verify(badNv, 0, true) != 1 ||
        inspect(badNv) != 1) {
        std::fprintf(stderr, "FAIL: inspect disagrees with verify on a "
                             "fresh, healthy or damaged store\n");
        return 1;
    }
    // verify, compact and a migration source open existing stores
    // only: a missing WAL or directory is refused and nothing is
    // created.
    const std::string absent = tmpl + "/absent";
    if (compact(noWal, 0) != 1 || verify(absent, 0, true) != 1 ||
        compact(absent, 0) != 1 || migrate(absent, dst, 0) != 1 ||
        std::filesystem::exists(absent) ||
        std::filesystem::exists(absent + ".tpmnv") ||
        std::filesystem::exists(noWal + "/wal.mwl")) {
        std::fprintf(stderr, "FAIL: verify, compact or migrate created "
                             "a store or accepted a missing WAL\n");
        return 1;
    }
    if (migrate(src, dst, 0) != 0) {
        std::fprintf(stderr, "FAIL: migrate\n");
        return 1;
    }
    if (verify(dst, 0x4d544754, /*quiet=*/true) != 0) {
        std::fprintf(stderr, "FAIL: verify migrated target\n");
        return 1;
    }
    // The abandoned source must now be a typed rollback rejection.
    auto stale = store::SealedStore::open(configFor(src, 0));
    if (stale.ok() ||
        stale.error().message.find("rollback detected") ==
            std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: invalidated source still opens\n");
        return 1;
    }
    std::printf("mintcb-store selftest: PASS\n");
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: mintcb-store [--seed N] [--quiet] "
                 "{inspect|verify|compact} <dir>\n"
                 "       mintcb-store [--seed N] migrate <src> <dst>\n"
                 "       mintcb-store --selftest\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 0;
    bool quiet = false;
    std::string mode;
    std::string args[2];
    int positional = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selftest();
        if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--seed") {
            if (i + 1 >= argc) {
                usage();
                return 2;
            }
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (mode.empty()) {
            mode = arg;
        } else if (positional < 2) {
            args[positional++] = arg;
        } else {
            usage();
            return 2;
        }
    }

    if (mode == "inspect" && positional == 1)
        return inspect(args[0]);
    if (mode == "verify" && positional == 1)
        return verify(args[0], seed, quiet);
    if (mode == "compact" && positional == 1)
        return compact(args[0], seed);
    if (mode == "migrate" && positional == 2)
        return migrate(args[0], args[1], seed);
    usage();
    return 2;
}
