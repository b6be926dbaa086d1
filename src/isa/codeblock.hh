/**
 * @file
 * A named, linkable sequence of instructions.
 */

#ifndef PCA_ISA_CODEBLOCK_HH
#define PCA_ISA_CODEBLOCK_HH

#include <functional>
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
 * references to slot indexes and byte addresses.
 *
 * Instructions are stored as slots (see Inst): a NOP run is one slot
 * whatever its length, so a block costs memory and layout time in
 * proportion to its non-NOP instructions. Labels name slots.
 */
class CodeBlock
{
  public:
    explicit CodeBlock(std::string name);

    const std::string &name() const { return blockName; }

    /** Append a one-instruction slot; returns its index. */
    int append(Inst inst);

    /**
     * Append @p count single-byte NOPs (@p count must be positive).
     * They extend the last slot if it is a NOP run no label was
     * bound after, and otherwise open a new slot, to which pending
     * labels bind. Returns the index of the slot holding them.
     */
    int appendNops(int count);

    /** Append a call to the block named @p callee. */
    int appendCall(std::string callee);

    /** Append a host escape running @p fn. */
    int appendHost(HostFn fn);

    /** Create a new unbound label; returns its id. */
    int newLabel();

    /** Bind label @p label to the next appended slot. */
    void bind(int label);

    /** Number of slots. */
    std::size_t size() const { return insts.size(); }

    /** Total encoded bytes (valid after link). */
    std::size_t bytes() const { return byteSize; }

    const Inst &inst(std::size_t i) const { return insts.at(i); }
    Inst &inst(std::size_t i) { return insts.at(i); }

    /** Name of the block the Call in slot @p i calls. */
    const std::string &calleeName(std::size_t i) const;

    /** Callback of the HostOp in slot @p i. */
    const HostFn &hostFn(std::size_t i) const;

    Addr baseAddr() const { return base; }

    /**
     * Lay the block out at @p base_addr: assign per-slot addresses,
     * compute the byte size, and resolve label references to slot
     * indexes. Panics on unbound labels.
     */
    void layout(Addr base_addr);

    /**
     * Resolve every Call's Inst::callee to the block id @p find
     * returns for its callee name (-1 for an unknown name, which
     * faults only if the call executes).
     */
    void resolveCalls(const std::function<int(const std::string &)> &find);

    /** Pretty-print a disassembly listing. */
    std::string disassemble() const;

  private:
    std::string blockName;
    std::vector<Inst> insts;
    /** A Call's slot and callee name, indexed by its Inst::side. */
    struct CallSite
    {
        int slot;
        std::string callee;
    };
    std::vector<CallSite> calls;
    /** Host callbacks, indexed by a HostOp's Inst::side. */
    std::vector<HostFn> hosts;
    /** label id -> slot index (-1 while unbound). */
    std::vector<int> labelTargets;
    /** labels waiting to bind to the next slot. */
    std::vector<int> pendingLabels;
    Addr base = 0;
    std::size_t byteSize = 0;
};

} // namespace pca::isa

#endif // PCA_ISA_CODEBLOCK_HH
