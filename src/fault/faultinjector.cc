#include "fault/faultinjector.hh"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "opt/optbuffer.hh"

namespace replay::fault {

using opt::Operand;
using opt::OptimizedFrame;
using uop::Op;
using uop::UReg;

namespace {

/**
 * Slots whose corruption is guaranteed semantically visible: the slot
 * value is bound to an architecturally live-out register at the frame
 * exit (not through a flags view), and the op computes a function of
 * its immediate for which imm != imm' implies value != value' for
 * every input (LIMM, ADD, SUB, XOR with the immediate operand form).
 */
std::vector<size_t>
armedSlots(const OptimizedFrame &body)
{
    std::vector<bool> live(body.size(), false);
    for (unsigned r = 0; r < uop::NUM_UREGS; ++r) {
        const auto reg = static_cast<UReg>(r);
        if (!opt::OptBuffer::archLiveOut(reg) || reg == UReg::FLAGS)
            continue;
        const Operand &binding = body.exit.regs[r];
        if (binding.isProd() && !binding.flagsView &&
            binding.idx < body.size())
            live[binding.idx] = true;
    }

    std::vector<size_t> out;
    for (size_t i = 0; i < body.size(); ++i) {
        if (!live[i])
            continue;
        const Op op = body.code.op[i];
        const bool imm_form = body.srcB[i].isNone();
        if (imm_form && (op == Op::LIMM || op == Op::ADD ||
                         op == Op::SUB || op == Op::XOR))
            out.push_back(i);
    }
    return out;
}

} // anonymous namespace

FaultInjector::FaultInjector(FaultConfig cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
}

bool
FaultInjector::corruptBody(OptimizedFrame &body, const char *site)
{
    const std::vector<size_t> slots = armedSlots(body);
    if (slots.empty()) {
        ++stats_.counter("no_target");
        return false;
    }
    const size_t slot = slots[rng_.below(slots.size())];
    Op &op = body.code.op[slot];
    int32_t &imm = body.code.imm[slot];

    // ADD <-> SUB opcode flip stays armed only when the two results
    // can never coincide (a+imm == a-imm iff 2*imm == 0 mod 2^32).
    const bool can_flip_op =
        (op == Op::ADD || op == Op::SUB) && imm != 0 &&
        imm != std::numeric_limits<int32_t>::min();
    if (can_flip_op && rng_.chance(0.25)) {
        op = op == Op::ADD ? Op::SUB : Op::ADD;
        ++stats_.counter(std::string(site) + "_op_flips");
    } else {
        imm ^= int32_t(1) << rng_.below(8);
        ++stats_.counter(std::string(site) + "_imm_flips");
    }
    return true;
}

// Each site guards its rate before touching rng_: a disabled site
// must not perturb the deterministic stream the enabled one consumes.

bool
FaultInjector::maybeFlipOnFetch(OptimizedFrame &body)
{
    if (cfg_.fetchFlipRate <= 0.0 || !rng_.chance(cfg_.fetchFlipRate))
        return false;
    if (!corruptBody(body, "fetch"))
        return false;
    ++stats_.counter("fetch_flips");
    return true;
}

bool
FaultInjector::maybeSabotagePass(OptimizedFrame &body)
{
    if (cfg_.passSabotageRate <= 0.0 ||
        !rng_.chance(cfg_.passSabotageRate))
        return false;
    if (!corruptBody(body, "pass"))
        return false;
    ++stats_.counter("pass_sabotage");
    return true;
}

uint64_t
FaultInjector::hashBody(const opt::OptimizedFrame &body)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](uint64_t v) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (b * 8)) & 0xff;
            h *= 0x00000100000001b3ULL;
        }
    };
    for (size_t i = 0, n = body.size(); i < n; ++i) {
        mix(uint64_t(body.code.op[i]));
        mix(uint64_t(uint32_t(body.code.imm[i])));
    }
    return h;
}

bool
FaultInjector::truncateFile(const std::string &path, uint64_t keep_bytes)
{
    std::error_code ec;
    std::filesystem::resize_file(path, keep_bytes, ec);
    return !ec;
}

bool
FaultInjector::flipByteAt(const std::string &path, uint64_t offset,
                          uint8_t mask)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return false;
    uint8_t byte = 0;
    const bool ok = std::fseek(f, long(offset), SEEK_SET) == 0 &&
                    std::fread(&byte, 1, 1, f) == 1 &&
                    std::fseek(f, long(offset), SEEK_SET) == 0 &&
                    (byte ^= mask, std::fwrite(&byte, 1, 1, f) == 1);
    std::fclose(f);
    return ok;
}

} // namespace replay::fault
