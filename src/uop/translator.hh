/**
 * @file
 * x86-to-rePLay micro-operation translator (§5.1.1).
 *
 * Each x86 instruction is decoded independently into a short flow of
 * fixed-format micro-ops; the flows mirror the paper's examples (PUSH is
 * a store plus a stack-pointer update, RET is a load, an update and an
 * indirect jump, ...).  Across the workloads the flows average ~1.4
 * micro-ops per x86 instruction, matching the paper's figure.
 */

#ifndef REPLAY_UOP_TRANSLATOR_HH
#define REPLAY_UOP_TRANSLATOR_HH

#include <vector>

#include "uop/uop.hh"
#include "x86/inst.hh"

namespace replay::uop {

/**
 * x86 decode-flow engine.  Decoding is stateless; the one member is a
 * work counter of translate() calls, so the owner of a translator can
 * say how many instructions it decoded.
 */
class Translator
{
  public:
    /**
     * Decode one x86 instruction into micro-ops, appending to @p out.
     *
     * @param inst     the instruction
     * @param pc       its address (provenance tagging)
     * @param next_pc  the fall-through address (CALL return address)
     * @return the number of micro-ops emitted
     */
    unsigned translate(const x86::Inst &inst, uint32_t pc,
                       uint32_t next_pc, std::vector<Uop> &out) const;

    /** Decode a flow into a fresh vector. */
    std::vector<Uop>
    translate(const x86::Inst &inst, uint32_t pc, uint32_t next_pc) const
    {
        std::vector<Uop> out;
        translate(inst, pc, next_pc, out);
        return out;
    }

    /** translate() calls made through this translator. */
    uint64_t translations() const { return translations_; }

  private:
    mutable uint64_t translations_ = 0;
};

} // namespace replay::uop

#endif // REPLAY_UOP_TRANSLATOR_HH
