/**
 * @file
 * Physical memory implementation.
 */

#include "machine/memory.hh"

#include <algorithm>

namespace mintcb::machine
{

PhysicalMemory::PhysicalMemory(std::uint64_t pages)
    : pages_(pages), frames_(pages)
{
}

bool
PhysicalMemory::contains(PhysAddr addr, std::uint64_t len) const
{
    return addr <= sizeBytes() && len <= sizeBytes() - addr;
}

Result<Bytes>
PhysicalMemory::read(PhysAddr addr, std::uint64_t len) const
{
    if (!contains(addr, len))
        return Error(Errc::invalidArgument, "physical read out of range");
    Bytes out(len, 0);
    for (std::uint64_t done = 0; done < len;) {
        const std::uint64_t offset = (addr + done) % pageSize;
        const std::uint64_t n = std::min(len - done, pageSize - offset);
        const Bytes &frame = frames_[pageOf(addr + done)];
        if (!frame.empty()) {
            std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(offset),
                        n, out.begin() + static_cast<std::ptrdiff_t>(done));
        }
        done += n;
    }
    return out;
}

Status
PhysicalMemory::write(PhysAddr addr, const Bytes &data)
{
    if (!contains(addr, data.size()))
        return Error(Errc::invalidArgument, "physical write out of range");
    for (std::uint64_t done = 0; done < data.size();) {
        const std::uint64_t offset = (addr + done) % pageSize;
        const std::uint64_t n =
            std::min<std::uint64_t>(data.size() - done, pageSize - offset);
        Bytes &frame = frames_[pageOf(addr + done)];
        if (frame.empty())
            frame.resize(pageSize, 0);
        std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(done), n,
                    frame.begin() + static_cast<std::ptrdiff_t>(offset));
        done += n;
    }
    return okStatus();
}

Status
PhysicalMemory::zeroPage(PageNum page)
{
    if (page >= pages_)
        return Error(Errc::invalidArgument, "page out of range");
    std::fill(frames_[page].begin(), frames_[page].end(), 0);
    return okStatus();
}

} // namespace mintcb::machine
