/**
 * @file
 * Raw physical memory for the simulated platform.
 *
 * Storage only; all access-control decisions live in the MemoryController
 * (the north bridge), exactly as in the paper's minimal-TCB picture
 * (Figure 1: CPU + RAM + the interface between them).
 */

#ifndef MINTCB_MACHINE_MEMORY_HH
#define MINTCB_MACHINE_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb::machine
{

/**
 * Byte-addressable physical memory with page-granular helpers.
 *
 * Each page gets its own buffer on its first write; a page never
 * written reads as zeros. A simulated machine touches a few dozen of
 * its thousands of pages, so building one makes no RAM-sized
 * allocation: no host memory to zero, and no dependence on whether the
 * host allocator still holds the last machine's pages.
 */
class PhysicalMemory
{
  public:
    /** @p pages 4 KB pages of zeroed RAM. */
    explicit PhysicalMemory(std::uint64_t pages);

    std::uint64_t pages() const { return pages_; }
    std::uint64_t sizeBytes() const { return pages_ * pageSize; }

    /** True when [addr, addr+len) lies inside RAM. */
    bool contains(PhysAddr addr, std::uint64_t len) const;

    /** Read @p len bytes at @p addr (bounds-checked). */
    Result<Bytes> read(PhysAddr addr, std::uint64_t len) const;

    /** Write @p data at @p addr (bounds-checked). */
    Status write(PhysAddr addr, const Bytes &data);

    /** Zero an entire page (SKILL's secure erase). */
    Status zeroPage(PageNum page);

  private:
    std::uint64_t pages_;
    std::vector<Bytes> frames_; //!< per page; empty = all zeros
};

} // namespace mintcb::machine

#endif // MINTCB_MACHINE_MEMORY_HH
