#include "isa/codeblock.hh"

#include <sstream>

#include "support/logging.hh"

namespace pca::isa
{

CodeBlock::CodeBlock(std::string name)
    : blockName(std::move(name))
{
}

int
CodeBlock::append(Inst inst)
{
    pca_assert(inst.count == 1);
    if (inst.size < 0)
        inst.size = defaultSize(inst.op);
    const int idx = static_cast<int>(insts.size());
    for (int label : pendingLabels)
        labelTargets[label] = idx;
    pendingLabels.clear();
    insts.push_back(inst);
    return idx;
}

int
CodeBlock::appendNops(int count)
{
    pca_assert(count > 0);
    if (pendingLabels.empty() && !insts.empty() &&
        insts.back().op == Opcode::Nop && insts.back().size == 1) {
        insts.back().count += count;
        return static_cast<int>(insts.size()) - 1;
    }
    Inst nop;
    nop.op = Opcode::Nop;
    const int idx = append(nop);
    insts.back().count = count;
    return idx;
}

int
CodeBlock::appendCall(std::string callee)
{
    Inst call;
    call.op = Opcode::Call;
    call.side = static_cast<int>(calls.size());
    const int idx = append(call);
    calls.push_back({idx, std::move(callee)});
    return idx;
}

int
CodeBlock::appendHost(HostFn fn)
{
    Inst host;
    host.op = Opcode::HostOp;
    host.side = static_cast<int>(hosts.size());
    hosts.push_back(std::move(fn));
    return append(host);
}

const std::string &
CodeBlock::calleeName(std::size_t i) const
{
    const Inst &in = inst(i);
    pca_assert(in.op == Opcode::Call);
    return calls.at(static_cast<std::size_t>(in.side)).callee;
}

const HostFn &
CodeBlock::hostFn(std::size_t i) const
{
    const Inst &in = inst(i);
    pca_assert(in.op == Opcode::HostOp);
    return hosts.at(static_cast<std::size_t>(in.side));
}

int
CodeBlock::newLabel()
{
    labelTargets.push_back(-1);
    return static_cast<int>(labelTargets.size()) - 1;
}

void
CodeBlock::bind(int label)
{
    pca_assert(label >= 0 &&
               label < static_cast<int>(labelTargets.size()));
    pendingLabels.push_back(label);
}

void
CodeBlock::layout(Addr base_addr)
{
    pca_assert(pendingLabels.empty());
    base = base_addr;
    Addr a = base_addr;
    for (auto &inst : insts) {
        inst.addr = a;
        a += static_cast<Addr>(inst.size) * static_cast<Addr>(inst.count);
        if (inst.label >= 0) {
            pca_assert(inst.label <
                       static_cast<int>(labelTargets.size()));
            const int target = labelTargets[inst.label];
            if (target < 0)
                pca_panic("unbound label ", inst.label, " in block '",
                          blockName, "'");
            inst.targetIndex = target;
        }
    }
    byteSize = a - base_addr;
}

void
CodeBlock::resolveCalls(
    const std::function<int(const std::string &)> &find)
{
    for (const CallSite &c : calls)
        insts[static_cast<std::size_t>(c.slot)].callee = find(c.callee);
}

std::string
CodeBlock::disassemble() const
{
    std::ostringstream os;
    os << blockName << ":\n";
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Inst &in = insts[i];
        os << "  " << in.addr << ": " << opcodeName(in.op);
        switch (in.op) {
          case Opcode::MovImm:
          case Opcode::AddImm:
          case Opcode::SubImm:
          case Opcode::CmpImm:
          case Opcode::AndImm:
          case Opcode::ShlImm:
          case Opcode::ShrImm:
            os << " " << regName(in.r1) << ", $" << in.imm;
            break;
          case Opcode::MovReg:
          case Opcode::AddReg:
          case Opcode::SubReg:
          case Opcode::CmpReg:
          case Opcode::TestReg:
          case Opcode::XorReg:
          case Opcode::OrReg:
            os << " " << regName(in.r1) << ", " << regName(in.r2);
            break;
          case Opcode::Load:
            os << " " << regName(in.r1) << ", [" << regName(in.r2)
               << "+" << in.imm << "]";
            break;
          case Opcode::Store:
            os << " [" << regName(in.r2) << "+" << in.imm << "], "
               << regName(in.r1);
            break;
          case Opcode::Push:
          case Opcode::Pop:
            os << " " << regName(in.r1);
            break;
          case Opcode::Jmp:
          case Opcode::Je:
          case Opcode::Jne:
          case Opcode::Jl:
          case Opcode::Jge:
            os << " -> #" << in.targetIndex;
            break;
          case Opcode::Call:
            os << " " << calleeName(i);
            break;
          case Opcode::Nop:
            if (in.count > 1)
                os << " x" << in.count;
            break;
          default:
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace pca::isa
