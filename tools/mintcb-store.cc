/**
 * @file
 * mintcb-store: operator tooling for the durable sealed-state engine.
 *
 * Modes:
 *
 *   mintcb-store inspect <dir>    structural WAL/snapshot report --
 *                                 record counts, torn-tail diagnosis,
 *                                 snapshot container (CRC-checked),
 *                                 sidecar presence. Reads the raw
 *                                 files; never unseals. Exit 1 on a
 *                                 torn log or a corrupt snapshot.
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
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "common/hex.hh"
#include "store/engine.hh"
#include "store/migrate.hh"
#include "store/wal.hh"

namespace
{

using namespace mintcb;

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
}

store::StoreConfig
configFor(const std::string &dir, std::uint64_t seed)
{
    store::StoreConfig cfg;
    cfg.dir = dir;
    if (seed != 0)
        cfg.seed = seed;
    return cfg;
}

int
inspect(const std::string &dir)
{
    const std::string walPath = dir + "/wal.mwl";
    const std::string snapPath = dir + "/snapshot.mss";
    const std::string nvPath = dir + ".tpmnv";

    const Bytes wal = readFile(walPath);
    std::printf("wal:      %s (%zu bytes)\n", walPath.c_str(),
                wal.size());
    const store::WalScan scan = store::scanWal(wal);
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

    const Bytes snap = readFile(snapPath);
    bool snapCorrupt = false;
    if (snap.empty()) {
        std::printf("snapshot: none\n");
    } else {
        std::printf("snapshot: %s (%zu bytes)\n", snapPath.c_str(),
                    snap.size());
        auto container = store::SnapshotContainer::decode(snap);
        if (container) {
            std::printf("  MSS1 v%u, clear epoch %llu (advisory; the "
                        "sealed epoch is authoritative)\n",
                        static_cast<unsigned>(store::snapshotVersion),
                        static_cast<unsigned long long>(
                            container->clearEpoch));
        } else {
            snapCorrupt = true;
            std::printf("  CORRUPT: %s\n",
                        container.error().message.c_str());
        }
    }

    const Bytes nv = readFile(nvPath);
    if (nv.empty())
        std::printf("chip NV:  none (fresh chip on next open)\n");
    else
        std::printf("chip NV:  %s (%zu bytes)\n", nvPath.c_str(),
                    nv.size());
    return scan.torn || snapCorrupt ? 1 : 0;
}

int
verify(const std::string &dir, std::uint64_t seed, bool quiet)
{
    auto opened = store::SealedStore::open(configFor(dir, seed));
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
    auto opened = store::SealedStore::open(configFor(dir, seed));
    if (!opened) {
        std::fprintf(stderr, "compact: open failed: %s\n",
                     opened.error().message.c_str());
        return 1;
    }
    const std::size_t before =
        readFile((*opened)->walPath()).size();
    if (auto s = (*opened)->checkpoint(); !s.ok()) {
        std::fprintf(stderr, "compact: checkpoint failed: %s\n",
                     s.error().message.c_str());
        return 1;
    }
    const std::size_t after = readFile((*opened)->walPath()).size();
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
    auto source = store::SealedStore::open(configFor(srcDir, 0));
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
