#include "isa/decoded.hh"

#include "support/logging.hh"

namespace pca::isa
{

namespace
{

/**
 * Opcodes the block engine executes inline. Everything else escapes
 * to the legacy interpreter: cross-block control flow (Call/Ret),
 * mode transitions (Syscall/Iret), counter access (Rdtsc/Rdpmc/
 * Rdmsr/Wrmsr — these observe mid-run PMU state, so retire batching
 * must flush before them), Halt, and HostOp.
 */
bool
inlineOp(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::AddImm:
      case Opcode::AddReg:
      case Opcode::SubImm:
      case Opcode::SubReg:
      case Opcode::CmpImm:
      case Opcode::CmpReg:
      case Opcode::TestReg:
      case Opcode::XorReg:
      case Opcode::AndImm:
      case Opcode::OrReg:
      case Opcode::ShlImm:
      case Opcode::ShrImm:
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::Push:
      case Opcode::Pop:
      case Opcode::Jmp:
      case Opcode::Je:
      case Opcode::Jne:
      case Opcode::Jl:
      case Opcode::Jge:
      case Opcode::Nop:
      case Opcode::Cpuid:
        return true;
      default:
        return false;
    }
}

/**
 * The fast-forward-safe set — must match the retire-time switch in
 * Core::step() exactly, or decoded and legacy execution would poison
 * loops differently and fast-forward at different iterations.
 */
bool
ffSafe(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::AddImm:
      case Opcode::AddReg:
      case Opcode::SubImm:
      case Opcode::SubReg:
      case Opcode::CmpImm:
      case Opcode::CmpReg:
      case Opcode::TestReg:
      case Opcode::XorReg:
      case Opcode::AndImm:
      case Opcode::OrReg:
      case Opcode::ShlImm:
      case Opcode::ShrImm:
      case Opcode::Nop:
      case Opcode::Jmp:
      case Opcode::Je:
      case Opcode::Jne:
      case Opcode::Jl:
      case Opcode::Jge:
        return true;
      default:
        return false;
    }
}

} // namespace

void
DecodedBlock::build(const CodeBlock &blk)
{
    const std::size_t n = blk.size();
    code.assign(n, DecodedInst{});
    runEnds.assign(n, 0);

    for (std::size_t i = 0; i < n; ++i) {
        const Inst &in = blk.inst(i);
        DecodedInst &di = code[i];
        di.op = in.op;
        di.r1 = static_cast<std::uint8_t>(in.r1);
        di.r2 = static_cast<std::uint8_t>(in.r2);
        di.size = in.size;
        di.targetIndex = in.targetIndex;
        di.imm = in.imm;
        di.addr = in.addr;

        if (!inlineOp(in.op))
            di.flags |= DiEscape;
        if (ffSafe(in.op))
            di.flags |= DiFfSafe;
        if (isCondBranch(in.op))
            di.flags |= DiCondBranch;
        if (isBranch(in.op) && in.targetIndex >= 0) {
            pca_assert(in.targetIndex < static_cast<int>(n));
            di.targetAddr =
                blk.inst(static_cast<std::size_t>(in.targetIndex)).addr;
            if ((di.flags & DiCondBranch) &&
                in.targetIndex < static_cast<int>(i))
                di.flags |= DiBackwardBranch;
        }
    }

    // Straight-line run ends, built backwards: runEnds[i] is the
    // first escape at or after i (or n), so [i, runEnds[i]) is
    // guaranteed inline-executable.
    std::int32_t end = static_cast<std::int32_t>(n);
    for (std::size_t i = n; i-- > 0;) {
        if (code[i].escape())
            end = static_cast<std::int32_t>(i);
        runEnds[i] = code[i].escape()
            ? static_cast<std::int32_t>(i)
            : end;
    }
}

} // namespace pca::isa
