/**
 * @file
 * Stats report renderer.
 */

#include "machine/platformstats.hh"

#include <cstdio>

#include "machine/machine.hh"

namespace mintcb::machine
{

std::string
statsReport(Machine &machine)
{
    std::string out;
    char line[160];
    auto emit = [&out, &line]() { out += line; };

    std::snprintf(line, sizeof(line), "=== platform stats: %s ===\n",
                  machine.spec().name.c_str());
    emit();
    std::snprintf(line, sizeof(line), "sim time: %s\n",
                  machine.now().sinceEpoch().str().c_str());
    emit();

    for (CpuId c = 0; c < machine.cpuCount(); ++c) {
        const Cpu &cpu = machine.cpu(c);
        std::snprintf(line, sizeof(line),
                      "cpu%u: t=%s legacy_work=%llu secure_clears=%llu\n",
                      c, cpu.now().sinceEpoch().str().c_str(),
                      static_cast<unsigned long long>(
                          cpu.legacyWorkDone()),
                      static_cast<unsigned long long>(
                          cpu.secureClears()));
        emit();
    }

    std::snprintf(line, sizeof(line), "lpc: bytes_moved=%llu\n",
                  static_cast<unsigned long long>(
                      machine.lpc().bytesMoved()));
    emit();

    out += "memctrl: " + renderCounters(machine.memctrl().stats()) + "\n";

    if (machine.hasTpm()) {
        out += std::string("tpm(") +
               tpm::vendorName(machine.tpm().vendor()) +
               "): " + renderCounters(machine.tpm().stats()) + "\n";
    } else {
        out += "tpm: (absent)\n";
    }
    return out;
}

} // namespace mintcb::machine
