/**
 * @file
 * SECB allocation helper (the untrusted OS's side of Section 5.6's
 * "Launch: Protect and Measure" preamble).
 */

#include "rec/secb.hh"

#include "machine/machine.hh"
#include "sea/pal.hh"

namespace mintcb::rec
{

Result<Secb>
allocateSecb(machine::Machine &machine, const sea::Pal &pal,
             PhysAddr base, std::size_t data_pages,
             Duration preemption_timer)
{
    if (base % pageSize != 0) {
        return Error(Errc::invalidArgument,
                     "SECB memory must be page-aligned");
    }
    const Bytes &image = pal.slbImage();
    const std::uint64_t image_pages = pagesFor(image.size());
    // Refuse a SECB that runs past simulated RAM before writing the
    // image or listing a page: data_pages is caller-controlled (a wire
    // field), so check by subtraction, never by an overflowing sum.
    const std::uint64_t ram_pages = machine.memctrl().pages();
    const std::uint64_t first = pageOf(base);
    if (first > ram_pages || image_pages > ram_pages - first ||
        data_pages > ram_pages - first - image_pages) {
        return Error(Errc::resourceExhausted,
                     "SECB for '" + pal.name() + "' does not fit in RAM");
    }
    if (auto s = machine.writeAs(0, base, image); !s.ok())
        return s.error();

    Secb secb;
    secb.palName = pal.name();
    secb.base = base;
    secb.preemptionTimer = preemption_timer;
    for (std::uint64_t i = 0; i < image_pages + data_pages; ++i)
        secb.pages.push_back(pageOf(base) + i);
    return secb;
}

} // namespace mintcb::rec
