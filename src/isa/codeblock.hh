/**
 * @file
 * A named, linkable sequence of instructions.
 */

#ifndef PCA_ISA_CODEBLOCK_HH
#define PCA_ISA_CODEBLOCK_HH

#include <string>
#include <vector>

#include "isa/inst.hh"
#include "support/types.hh"

namespace pca::isa
{

/**
 * A contiguous run of instructions with local labels, analogous to a
 * function in the measured program. Blocks are positioned in the
 * address space by Program::link(), which also resolves label
 * references to instruction indexes and byte addresses.
 */
class CodeBlock
{
  public:
    explicit CodeBlock(std::string name);

    const std::string &name() const { return blockName; }

    /** Append an instruction; returns its index. */
    int append(Inst inst);

    /**
     * Append @p count copies of @p inst in one insert; returns the
     * first copy's index, to which pending labels bind (@p count
     * must be positive).
     */
    int appendRun(Inst inst, int count);

    /** Create a new unbound label; returns its id. */
    int newLabel();

    /** Bind label @p label to the next appended instruction. */
    void bind(int label);

    /** Number of instructions. */
    std::size_t size() const { return insts.size(); }

    /** Total encoded bytes (valid after link). */
    std::size_t bytes() const { return byteSize; }

    const Inst &inst(std::size_t i) const { return insts.at(i); }
    Inst &inst(std::size_t i) { return insts.at(i); }

    Addr baseAddr() const { return base; }

    /**
     * Lay the block out at @p base_addr: assign per-instruction
     * addresses, compute the byte size, and resolve label references
     * to instruction indexes. Panics on unbound labels.
     */
    void layout(Addr base_addr);

    /** Pretty-print a disassembly listing. */
    std::string disassemble() const;

  private:
    std::string blockName;
    std::vector<Inst> insts;
    /** label id -> instruction index (-1 while unbound). */
    std::vector<int> labelTargets;
    /** labels waiting to bind to the next instruction. */
    std::vector<int> pendingLabels;
    Addr base = 0;
    std::size_t byteSize = 0;
    bool linked = false;
};

} // namespace pca::isa

#endif // PCA_ISA_CODEBLOCK_HH
