/**
 * @file
 * Pre-decoded execution image of a CodeBlock.
 *
 * The interpreter's hot path used to re-derive everything it needed
 * from the assembler-facing Inst on every step: a two-level
 * bounds-checked lookup into a ~100-byte struct (label strings, host
 * callbacks), a 20-case fast-forward-safety switch, and branch-target
 * address resolution through a second Inst lookup. DecodedInst is the
 * link-time answer: a dense, flat array of fixed-size records with
 * every per-instruction classification the core needs precomputed as
 * flags, plus the straight-line basic-block structure (where the next
 * must-interpret instruction is) so the core can execute a whole
 * block per dispatch. Rare instructions (traps, counter access, host
 * escapes) deliberately stay out of the decoded fast path: they are
 * flagged DiEscape and run through the legacy per-step interpreter,
 * which remains the single source of truth for their semantics.
 */

#ifndef PCA_ISA_DECODED_HH
#define PCA_ISA_DECODED_HH

#include <cstdint>
#include <vector>

#include "isa/codeblock.hh"
#include "isa/inst.hh"
#include "support/types.hh"

namespace pca::isa
{

/** Per-instruction flags precomputed at decode (link) time. */
enum DecodedFlags : std::uint8_t
{
    /** In the fast-forward-safe opcode set (steady-loop deltas). */
    DiFfSafe = 1 << 0,
    /** Conditional branch (Je/Jne/Jl/Jge). */
    DiCondBranch = 1 << 1,
    /** Conditional branch whose target precedes it (loop branch). */
    DiBackwardBranch = 1 << 2,
    /**
     * Must execute through the legacy per-step interpreter: control
     * transfers between blocks, mode transitions, counter access,
     * host escapes, Halt — everything that can change privilege
     * mode, PMU programming, or the current code block.
     */
    DiEscape = 1 << 3,
    /**
     * Single-byte Nop slot (work(n) filler, count NOPs): the block
     * engine retires it one icache line at a time.
     */
    DiNop = 1 << 4,
};

/**
 * One pre-decoded slot: the subset of Inst the block engine
 * executes, flattened into a fixed-size record (40 bytes vs. Inst's
 * 48). A NOP run stays one record.
 */
struct DecodedInst
{
    Opcode op = Opcode::Nop;
    std::uint8_t flags = 0;
    std::uint8_t r1 = 0;
    std::uint8_t r2 = 0;
    std::int32_t size = 0;
    /** Branches: block-local target index (-1 for non-branches). */
    std::int32_t targetIndex = -1;
    /** Instructions in the slot (Inst::count). */
    std::int32_t count = 1;
    std::int64_t imm = 0;
    Addr addr = 0;
    /** Link-resolved byte address of a branch's target. */
    Addr targetAddr = 0;

    bool escape() const { return (flags & DiEscape) != 0; }
};

/**
 * The decoded image of one CodeBlock, one record per slot, plus its
 * straight-line run structure. Built by Program::link2 after
 * layout (addresses and branch targets must already be resolved).
 */
class DecodedBlock
{
  public:
    /**
     * (Re)build from a laid-out block; layout must be final
     * (addresses already assigned).
     */
    void build(const CodeBlock &blk);

    std::size_t size() const { return code.size(); }
    const DecodedInst *data() const { return code.data(); }
    const DecodedInst &inst(std::size_t i) const { return code[i]; }

    /**
     * Exclusive end of the contiguous non-escape run containing
     * slot @p i: the block engine may execute slots [i, runEnd(i))
     * without consulting the legacy interpreter. Equals i when slot
     * i itself is an escape.
     */
    int runEnd(std::size_t i) const { return runEnds[i]; }

  private:
    std::vector<DecodedInst> code;
    std::vector<std::int32_t> runEnds;
};

} // namespace pca::isa

#endif // PCA_ISA_DECODED_HH
