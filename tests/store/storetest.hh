/**
 * @file
 * Shared helpers for the sealed-store test suite: a self-cleaning
 * temporary directory, a checked open, a file-size cap for disk faults,
 * and workload/digest utilities.
 */

#ifndef MINTCB_TESTS_STORE_STORETEST_HH
#define MINTCB_TESTS_STORE_STORETEST_HH

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "common/types.hh"
#include "store/engine.hh"

namespace mintcb::storetest
{

/** mkdtemp-backed scratch space, recursively removed on destruction.
 *  The store directory proper is a subdirectory so the chip-NV sidecar
 *  ("<dir>.tpmnv") also lands inside the scratch space. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl = "/tmp/mintcb-store-test-XXXXXX";
        root_ = mkdtemp(tmpl.data());
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &root() const { return root_; }
    std::string storeDir() const { return root_ + "/state"; }

  private:
    std::string root_;
};

inline store::StoreConfig
configFor(const TempDir &tmp)
{
    store::StoreConfig cfg;
    cfg.dir = tmp.storeDir();
    return cfg;
}

/** Open a store, failing the current test (without aborting it) when
 *  the open is refused. */
inline std::unique_ptr<store::SealedStore>
mustOpen(const store::StoreConfig &cfg)
{
    auto store = store::SealedStore::open(cfg);
    EXPECT_TRUE(store.ok())
        << (store.ok() ? "" : store.error().message);
    return store.ok() ? store.take() : nullptr;
}

/** A real disk fault with no hook: caps this process's file size
 *  (RLIMIT_FSIZE) and ignores SIGXFSZ, so a write that crosses the cap
 *  is cut short and the next one fails with EFBIG. restore() (or the
 *  destructor) puts the old limit and SIGXFSZ disposition back; call
 *  it right after the faulted call, before anything else writes. */
class FileSizeCap
{
  public:
    explicit FileSizeCap(rlim_t bytes)
    {
        ::getrlimit(RLIMIT_FSIZE, &saved_);
        savedHandler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit capped = saved_;
        capped.rlim_cur = bytes;
        active_ = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
    }
    ~FileSizeCap() { restore(); }

    FileSizeCap(const FileSizeCap &) = delete;
    FileSizeCap &operator=(const FileSizeCap &) = delete;

    bool active() const { return active_; }

    void
    restore()
    {
        if (savedHandler_ == SIG_ERR)
            return;
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, savedHandler_);
        savedHandler_ = SIG_ERR;
    }

  private:
    rlimit saved_{};
    void (*savedHandler_)(int) = SIG_ERR;
    bool active_ = false;
};

/** Whole-file read/write, for the rollback/corruption tests that play
 *  the adversarial OS. */
inline Bytes
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
}

inline void
spew(const std::string &path, const Bytes &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

/** The full map contents, for equality checks across replicas whose
 *  epochs legitimately differ (digests bind the epoch too). */
inline std::map<std::string, Bytes>
contents(const store::SealedStore &s)
{
    std::map<std::string, Bytes> out;
    for (const std::string &key : s.keys()) {
        auto value = s.get(key);
        if (value)
            out.emplace(key, value.take());
    }
    return out;
}

} // namespace mintcb::storetest

#endif // MINTCB_TESTS_STORE_STORETEST_HH
