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
    if (inst.size < 0)
        inst.size = defaultSize(inst.op);
    const int idx = static_cast<int>(insts.size());
    for (int label : pendingLabels)
        labelTargets[label] = idx;
    pendingLabels.clear();
    insts.push_back(std::move(inst));
    linked = false;
    return idx;
}

int
CodeBlock::appendRun(Inst inst, int count)
{
    pca_assert(count > 0);
    if (inst.size < 0)
        inst.size = defaultSize(inst.op);
    const int idx = append(inst);
    insts.insert(insts.end(), static_cast<std::size_t>(count - 1), inst);
    return idx;
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
        a += static_cast<Addr>(inst.size);
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
    linked = true;
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
            os << " " << in.callee;
            break;
          default:
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace pca::isa
