#include "cpu/core.hh"

#include "obs/profile.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/status.hh"

namespace pca::cpu
{

using isa::CodePtr;
using isa::Inst;
using isa::Opcode;
using isa::Reg;

Core::Core(const MicroArch &arch)
    : archRef(arch),
      pmuUnit(arch),
      frontEnd(arch),
      predictor(arch.btbSets, arch.btbWays),
      icache(arch.icacheSets, arch.icacheWays, arch.icacheLineBytes),
      itlb(std::max(1, arch.itlbEntries / arch.itlbWays),
           arch.itlbWays, 4096),
      dcache(arch.dcacheSets, arch.dcacheWays, arch.dcacheLineBytes),
      l2(arch.l2Sets, arch.l2Ways, arch.l2LineBytes),
      dtlb(std::max(1, arch.dtlbEntries / arch.dtlbWays),
           arch.dtlbWays, 4096)
{
    auto shift_of = [](int bytes) {
        int s = 0;
        while ((1 << s) < bytes)
            ++s;
        return s;
    };
    icLineShift = shift_of(icache.lineBytes());
    itlbPageShift = shift_of(itlb.lineBytes());
    // The block engine nests its iTLB-page check inside the
    // icache-line check: lines must subdivide pages.
    pca_assert(icLineShift <= itlbPageShift);
    reset();
}

void
Core::setProgram(const isa::Program *prog)
{
    pca_assert(prog && prog->linked());
    program = prog;
}

std::uint64_t &
Core::reg(Reg r)
{
    return regs[static_cast<std::size_t>(r)];
}

std::uint64_t
Core::getReg(Reg r) const
{
    return regs[static_cast<std::size_t>(r)];
}

void
Core::setReg(Reg r, std::uint64_t v)
{
    regs[static_cast<std::size_t>(r)] = v;
}

void
Core::jumpTo(const std::string &symbol)
{
    pca_assert(program);
    pc = program->entry(symbol);
    pcRedirected = true;
    frontEnd.redirect(program->addr(pc));
}

Count
Core::rawEvents(EventType ev, Mode m) const
{
    return rawEv[static_cast<std::size_t>(ev)]
                [static_cast<std::size_t>(m)];
}

Cycles
Core::modeCycles(Mode m) const
{
    return cyclesPerMode[static_cast<std::size_t>(m)];
}

void
Core::chargeCycles(Cycles c)
{
    if (c == 0)
        return;
    cycleCount += c;
    cyclesPerMode[static_cast<std::size_t>(curMode)] += c;
    pmuUnit.addCycles(c, curMode);
}

void
Core::countEvent(EventType ev, Count n)
{
    rawEv[static_cast<std::size_t>(ev)]
         [static_cast<std::size_t>(curMode)] += n;
    pmuUnit.count(ev, curMode, n);
}

void
Core::dataAccess(Addr addr)
{
    countEvent(EventType::DcacheAccess);
    if (!dtlb.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.dtlbMissPenalty));
        countEvent(EventType::DtlbMiss);
    }
    if (!dcache.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.dcacheMissPenalty));
        countEvent(EventType::DcacheMiss);
        // Fill from the unified L2; an L2 miss goes to memory.
        if (!l2.access(addr)) {
            chargeCycles(static_cast<Cycles>(archRef.l2MissPenalty));
            countEvent(EventType::L2Miss);
        }
    }
}

void
Core::fetchCosts(Addr addr, int size)
{
    if (!icache.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.icacheMissPenalty));
        countEvent(EventType::IcacheMiss);
        // Instruction fills also come through the unified L2.
        if (!l2.access(addr)) {
            chargeCycles(static_cast<Cycles>(archRef.l2MissPenalty));
            countEvent(EventType::L2Miss);
        }
    }
    if (!itlb.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.itlbMissPenalty));
        countEvent(EventType::ItlbMiss);
    }
    // Keep the block engine's same-line fast path honest: these must
    // always name the most recently accessed icache line / iTLB page.
    lastFetchLine = addr >> icLineShift;
    lastFetchPage = addr >> itlbPageShift;
    chargeCycles(frontEnd.onInst(addr, size));
}

void
Core::doTakenBranch(const Inst &in, CodePtr target)
{
    const Addr tgt_addr = program->inst(target).addr;
    chargeCycles(frontEnd.onTakenBranch(
        in.addr, in.addr + static_cast<Addr>(in.size), tgt_addr));
    pc = target;
    pcRedirected = true;
}

RunResult
Core::run(CodePtr entry, Count max_instr)
{
    pca_assert(program);
    pc = entry;
    halted = false;
    Count steps = 0;

    while (!halted) {
        if (curMode == Mode::User && pmuUnit.overflowPending()) {
            // Counter overflow: deliver the PMI before anything else.
            pmiCounter = pmuUnit.takeOverflow();
            deliverInterrupt(pmiVector);
        } else if (curMode == Mode::User && intClient &&
                   cycleCount >= intClient->nextInterruptCycle()) {
            const int vec = intClient->pollInterrupt(cycleCount);
            if (vec >= 0)
                deliverInterrupt(vec);
        }
        if (decodeOn && !pmuUnit.samplingActive() &&
            prof == nullptr) {
            steps += stepDecodedBlock();
        } else {
            // Sampling sessions and an attached profiler force pure
            // interpretation: overflow (or the retired-PC ground
            // truth) must be observed at the exact retiring
            // instruction.
            step();
            ++steps;
        }
        if (steps > max_instr)
            // Not transient: a program that cannot finish (say, under
            // a timer period shorter than the tick handler) fails the
            // same way on every attempt. The message names the limit,
            // not the step count, which differs between the engines.
            throw StatusError(Status(
                StatusCode::ResourceExhausted,
                "runaway program: no halt within " +
                    std::to_string(max_instr) + " steps"));
        if (deadlineInstrs != 0 || deadlineCycles != 0) {
            // The watchdog. Checked only at dispatch boundaries
            // (the block engine caps a dispatch at one chunk, so a
            // wedged kernel loop trips it within one chunk of the
            // budget); the message names the budgets, not the
            // position the overrun was observed at, because that
            // position differs between the two engines while the
            // degraded-row note derived from this message must not.
            const Count retired =
                instrPerMode[0] + instrPerMode[1];
            if ((deadlineInstrs != 0 && retired > deadlineInstrs) ||
                (deadlineCycles != 0 &&
                 cycleCount > deadlineCycles))
                throw StatusError(Status(
                    StatusCode::DeadlineExceeded,
                    "watchdog: run budget exceeded (limits: " +
                        std::to_string(deadlineInstrs) +
                        " instrs, " +
                        std::to_string(deadlineCycles) +
                        " cycles)"));
        }
    }

    RunResult res;
    res.userInstr = instrPerMode[static_cast<std::size_t>(Mode::User)];
    res.kernelInstr =
        instrPerMode[static_cast<std::size_t>(Mode::Kernel)];
    res.cycles = cycleCount;
    res.interrupts = interruptCount;
    res.fastForwardedIters = ffIters;
    return res;
}

void
Core::step()
{
    const Inst &in = program->inst(pc);

    if (in.op == Opcode::HostOp) {
        // Architecturally free data plumbing.
        pcRedirected = false;
        const isa::HostFn &fn =
            program->block(pc.block).hostFn(
                static_cast<std::size_t>(pc.index));
        pca_assert(fn);
        fn(*this);
        if (!pcRedirected)
            ++pc.index;
        poisonSinceBackward = true;
        return;
    }

    const Mode mode_at_fetch = curMode;
    const int prev_index = pc.index;
    const Cycles cycles_at_fetch = cycleCount;
    // One instruction of the slot: the one pc.offset names.
    const Addr at = in.addr + static_cast<Addr>(pc.offset) *
                                  static_cast<Addr>(in.size);
    fetchCosts(at, in.size);

    pcRedirected = false;
    bool taken_backward = false;
    execute(in);

    // Retire.
    instrPerMode[static_cast<std::size_t>(mode_at_fetch)] += 1;
    rawEv[static_cast<std::size_t>(EventType::InstrRetired)]
         [static_cast<std::size_t>(mode_at_fetch)] += 1;
    pmuUnit.count(EventType::InstrRetired, mode_at_fetch, 1);
    if (mode_at_fetch == Mode::Kernel)
        PCA_SPC_INC(KernelInstrs);
    else if (prof != nullptr)
        prof->onUserRetire(at, cycleCount - cycles_at_fetch);

    if (!pcRedirected) {
        if (++pc.offset == in.count) {
            pc.offset = 0;
            ++pc.index;
        }
    } else if (isCondBranch(in.op) && in.targetIndex >= 0 &&
             in.targetIndex < prev_index)
        taken_backward = true;

    // Fast-forward bookkeeping.
    switch (in.op) {
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
        break; // safe for steady-loop extrapolation
      default:
        poisonSinceBackward = true;
        break;
    }
    if (curMode != Mode::User)
        poisonSinceBackward = true;

    if (taken_backward && ffEnabled && curMode == Mode::User) {
        // The branch instruction itself has fully retired; the loop
        // head is the current pc.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(pc.block) << 32) |
            static_cast<std::uint64_t>(prev_index);
        maybeFastForwardKeyed(key, in, prev_index);
    }
}

namespace
{

/**
 * Escape-accounting class of a block-engine dispatch exit: which SPC
 * a fallback to the legacy interpreter is charged to.
 */
obs::Spc
escapeSpc(Opcode op)
{
    switch (op) {
      case Opcode::Call:
      case Opcode::Ret:
        return obs::Spc::DecodedEscapeCallret;
      case Opcode::Rdtsc:
      case Opcode::Rdpmc:
        return obs::Spc::DecodedEscapeTimeread;
      case Opcode::Syscall:
      case Opcode::Iret:
        return obs::Spc::DecodedEscapeSyscall;
      default:
        return obs::Spc::DecodedEscapeOther;
    }
}

} // namespace

/**
 * Execute one straight-line run of pre-decoded instructions in a
 * single dispatch. Returns the number of steps taken (== retired
 * instructions for inline runs; 1 for the escape fallback).
 *
 * Bit-identity with the per-step interpreter rests on five facts:
 *  - run() only dispatches here when PMU sampling is inactive, and no
 *    inline opcode can arm it, so a PMI can never become pending
 *    mid-run;
 *  - InterruptClient::nextInterruptCycle() is constant between
 *    pollInterrupt() calls, so caching it per dispatch and breaking
 *    after the first instruction that reaches it reproduces the
 *    baseline poll points exactly (the baseline, too, always executes
 *    exactly one instruction after each poll);
 *  - InstrRetired/SPC retire accounting is purely additive while
 *    sampling is off, so batching it to one count() per run is
 *    invisible — and the batch is flushed (commit) before anything
 *    that could observe it: escapes, fast-forward, or return;
 *  - curMode cannot change inside a run (mode transitions escape);
 *  - a line's NOP batch is charged exactly as its NOPs one by one
 *    (FrontEnd::onNopRun) and is only taken when stepping them would
 *    not break the dispatch before its end (see the batch below).
 */
Count
Core::stepDecodedBlock()
{
    const isa::DecodedBlock &db = program->decoded(pc.block);
    std::size_t idx = static_cast<std::size_t>(pc.index);
    if (idx >= db.size() || db.inst(idx).escape()) {
        obs::spcInc(idx < db.size() ? escapeSpc(db.inst(idx).op)
                                    : obs::Spc::DecodedEscapeOther);
        step();
        return 1;
    }
    // Offset within the slot: nonzero only inside a NOP run, whose
    // NOPs are one byte each, so NOP off of slot idx sits at
    // addr + off.
    auto off = static_cast<std::size_t>(pc.offset);

    const Mode mode = curMode;
    const auto mi = static_cast<std::size_t>(mode);
    const bool check_irq = mode == Mode::User && intClient != nullptr;
    const Cycles irq_due =
        check_irq ? intClient->nextInterruptCycle() : 0;
    auto run_end = static_cast<std::size_t>(db.runEnd(idx));

    // Cap one dispatch so run()'s runaway guard still triggers on
    // programs that never escape (a Halt-less inline loop). The
    // dispatch breaks when the step count reaches it or the slot
    // index reaches run_end.
    constexpr Count chunk = 65536;

    Count retired = 0;  //!< batched, not yet flushed
    Count brRetired = 0; //!< batched branch retires
    Cycles pend = 0;    //!< batched cycle charges
    Count total = 0;    //!< steps taken this dispatch
    bool poison = mode != Mode::User;

    // Keep the fetch-skip keys in registers for the run; members are
    // synced at every point the run can leave this function.
    Addr fetchLine = lastFetchLine;
    Addr fetchPage = lastFetchPage;

    // Flush the retire and cycle batches. Both are purely additive
    // while sampling is off (and the mode is constant for the whole
    // run), so deferring them is invisible as long as every observer
    // sees a flushed state: fast-forward, escapes, and dispatch exit
    // (interrupt polls, rdpmc, HostOp captures). Nothing inside the
    // loop reads cycleCount or the TSC: time-reading opcodes escape,
    // and dataAccess() only touches the cache models. The interrupt
    // horizon check below compensates with cycleCount + pend.
    auto flush = [&] {
        if (retired != 0) {
            instrPerMode[mi] += retired;
            rawEv[static_cast<std::size_t>(EventType::InstrRetired)]
                 [mi] += retired;
            pmuUnit.count(EventType::InstrRetired, mode, retired);
            if (mode == Mode::Kernel)
                PCA_SPC_ADD(KernelInstrs, retired);
            retired = 0;
        }
        if (brRetired != 0) {
            rawEv[static_cast<std::size_t>(
                EventType::BrInstRetired)][mi] += brRetired;
            pmuUnit.count(EventType::BrInstRetired, mode, brRetired);
            brRetired = 0;
        }
        if (pend != 0) {
            cycleCount += pend;
            cyclesPerMode[mi] += pend;
            pmuUnit.addCycles(pend, mode);
            pend = 0;
        }
        if (poison)
            poisonSinceBackward = true;
        poison = mode != Mode::User;
        lastFetchLine = fetchLine;
        lastFetchPage = fetchPage;
    };

    const isa::DecodedInst *code = db.data();
    // Cleared when a NOP batch is refused: the dispatch then ends
    // inside the refused batch (see below), stepping its NOPs.
    bool batching = true;
    const auto line_bytes = static_cast<std::size_t>(1) << icLineShift;
    for (;;) {
        const isa::DecodedInst &di = code[idx];
        const Addr at = di.addr + off;

        // Fetch. Consecutive fetches within one icache line / iTLB
        // page are guaranteed hits on an already-MRU entry, so the
        // lookup (and its LRU touch) can be skipped without changing
        // any future victim choice, miss, or cycle. A page change
        // implies a line change (lines subdivide pages), so the page
        // check only needs to run when the line changed.
        const Addr line = at >> icLineShift;
        if (line != fetchLine) {
            fetchLine = line;
            if (!icache.access(at)) {
                pend += static_cast<Cycles>(archRef.icacheMissPenalty);
                countEvent(EventType::IcacheMiss);
                if (!l2.access(at)) {
                    pend += static_cast<Cycles>(archRef.l2MissPenalty);
                    countEvent(EventType::L2Miss);
                }
            }
            const Addr page = at >> itlbPageShift;
            if (page != fetchPage) {
                fetchPage = page;
                if (!itlb.access(at)) {
                    pend +=
                        static_cast<Cycles>(archRef.itlbMissPenalty);
                    countEvent(EventType::ItlbMiss);
                }
            }
        }

        if ((di.flags & isa::DiNop) != 0) {
            const auto count = static_cast<std::size_t>(di.count);
            // NOP batch: retire the slot's NOPs left in this icache
            // line at once. Their fetch is the line access just made,
            // the front end charges them in closed form, and they
            // change no other state. Per-instruction stepping would
            // break after the first of them to reach the interrupt
            // horizon or the chunk; pend only grows, so a batch that
            // ends below the horizon and within the chunk passes no
            // break point, and one that does not is refused and
            // stepped instead — and the dispatch then ends inside it.
            if (batching) {
                const std::size_t m = std::min(
                    count - off, line_bytes - (at & (line_bytes - 1)));
                if (total + m > chunk) {
                    PCA_SPC_INC(NopBatchRejectLimit);
                    batching = false;
                } else {
                    const FrontEnd::Cursor undo = frontEnd.cursor();
                    const Cycles c = frontEnd.onNopRun(at, m);
                    if (check_irq && cycleCount + pend + c >= irq_due) {
                        frontEnd.setCursor(undo);
                        PCA_SPC_INC(NopBatchRejectIrq);
                        batching = false;
                    } else {
                        PCA_SPC_INC(NopBatches);
                        PCA_SPC_ADD(NopBatchInstrs, m);
                        pend += c;
                        retired += m;
                        total += m;
                        off += m;
                        if (off == count) {
                            off = 0;
                            if (++idx >= run_end)
                                break;
                        }
                        if (total >= chunk)
                            break;
                        continue;
                    }
                }
            }
            // One NOP of the run.
            pend += frontEnd.onInst(at, 1);
            ++retired;
            ++total;
            if (++off == count) {
                off = 0;
                ++idx;
            }
            if ((check_irq && cycleCount + pend >= irq_due) ||
                idx >= run_end || total >= chunk)
                break;
            continue;
        }

        pend += frontEnd.onInst(di.addr, di.size);

        bool taken = false;
        switch (di.op) {
          case Opcode::MovImm:
            regs[di.r1] = static_cast<std::uint64_t>(di.imm);
            break;
          case Opcode::MovReg:
            regs[di.r1] = regs[di.r2];
            break;
          case Opcode::AddImm:
            regs[di.r1] += static_cast<std::uint64_t>(di.imm);
            break;
          case Opcode::AddReg:
            regs[di.r1] += regs[di.r2];
            break;
          case Opcode::SubImm:
            regs[di.r1] -= static_cast<std::uint64_t>(di.imm);
            break;
          case Opcode::SubReg:
            regs[di.r1] -= regs[di.r2];
            break;
          case Opcode::CmpImm:
            zeroFlag =
                regs[di.r1] == static_cast<std::uint64_t>(di.imm);
            lessFlag =
                static_cast<std::int64_t>(regs[di.r1]) < di.imm;
            break;
          case Opcode::CmpReg:
            zeroFlag = regs[di.r1] == regs[di.r2];
            lessFlag = static_cast<std::int64_t>(regs[di.r1]) <
                static_cast<std::int64_t>(regs[di.r2]);
            break;
          case Opcode::TestReg:
            zeroFlag = (regs[di.r1] & regs[di.r2]) == 0;
            lessFlag = false;
            break;
          case Opcode::XorReg:
            regs[di.r1] ^= regs[di.r2];
            break;
          case Opcode::AndImm:
            regs[di.r1] &= static_cast<std::uint64_t>(di.imm);
            break;
          case Opcode::OrReg:
            regs[di.r1] |= regs[di.r2];
            break;
          case Opcode::ShlImm:
            regs[di.r1] <<= di.imm;
            break;
          case Opcode::ShrImm:
            regs[di.r1] >>= di.imm;
            break;

          case Opcode::Load:
          {
            const Addr a = regs[di.r2] + static_cast<Addr>(di.imm);
            regs[di.r1] = memory.load(a);
            dataAccess(a);
            break;
          }
          case Opcode::Store:
          {
            const Addr a = regs[di.r2] + static_cast<Addr>(di.imm);
            memory.store(a, regs[di.r1]);
            dataAccess(a);
            break;
          }
          case Opcode::Push:
            reg(Reg::Esp) -= 8;
            memory.store(reg(Reg::Esp), regs[di.r1]);
            dataAccess(reg(Reg::Esp));
            break;
          case Opcode::Pop:
            regs[di.r1] = memory.load(reg(Reg::Esp));
            dataAccess(reg(Reg::Esp));
            reg(Reg::Esp) += 8;
            break;

          case Opcode::Jmp:
            predictor.noteUncond(di.addr);
            ++brRetired;
            taken = true;
            break;
          case Opcode::Je:
          case Opcode::Jne:
          case Opcode::Jl:
          case Opcode::Jge:
          {
            const bool t = di.op == Opcode::Je    ? zeroFlag
                           : di.op == Opcode::Jne ? !zeroFlag
                           : di.op == Opcode::Jl  ? lessFlag
                                                  : !lessFlag;
            const bool mispred = predictor.predictAndTrain(di.addr, t);
            ++brRetired;
            if (mispred) {
                pend += static_cast<Cycles>(archRef.mispredictPenalty);
                rawEv[static_cast<std::size_t>(
                    EventType::BrMispRetired)][mi] += 1;
                pmuUnit.count(EventType::BrMispRetired, mode, 1);
            }
            taken = t;
            break;
          }

          case Opcode::Nop: // multi-byte: single-byte NOPs batch above
            break;
          case Opcode::Cpuid:
            pend += static_cast<Cycles>(archRef.cpuidCycles);
            break;
          default:
            pca_panic("escape opcode ", isa::opcodeName(di.op),
                      " reached the block engine");
        }

        if (taken) {
            pend += frontEnd.onTakenBranch(
                di.addr, di.addr + static_cast<Addr>(di.size),
                di.targetAddr);
            ++retired;
            ++total;
            if ((di.flags & isa::DiBackwardBranch) != 0 && ffEnabled &&
                mode == Mode::User) {
                // The fast-forward machinery observes per-iteration
                // retire/cycle deltas and poisonSinceBackward: flush
                // first, exactly as if every instruction had retired
                // individually.
                flush();
                const auto bidx = static_cast<int>(idx);
                pc.index = di.targetIndex;
                pc.offset = 0;
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(pc.block) << 32) |
                    static_cast<std::uint64_t>(bidx);
                maybeFastForwardKeyed(
                    key, program->inst(CodePtr{pc.block, bidx}), bidx);
            }
            idx = static_cast<std::size_t>(di.targetIndex);
            if (idx >= db.size() || code[idx].escape())
                break;
            run_end = static_cast<std::size_t>(db.runEnd(idx));
            if ((check_irq && cycleCount + pend >= irq_due) ||
                total >= chunk)
                break;
            continue;
        }

        ++retired;
        ++total;
        poison |= (di.flags & isa::DiFfSafe) == 0;
        ++idx;
        if ((check_irq && cycleCount + pend >= irq_due) ||
            idx >= run_end || total >= chunk)
            break;
    }
    flush();
    pc.index = static_cast<int>(idx);
    pc.offset = static_cast<int>(off);
    return total;
}

void
Core::execute(const Inst &in)
{
    auto cond_branch = [&](bool taken) {
        const bool mispred = predictor.predictAndTrain(in.addr, taken);
        countEvent(EventType::BrInstRetired);
        if (mispred) {
            chargeCycles(
                static_cast<Cycles>(archRef.mispredictPenalty));
            countEvent(EventType::BrMispRetired);
        }
        if (taken)
            doTakenBranch(in, CodePtr{pc.block, in.targetIndex});
    };

    switch (in.op) {
      case Opcode::MovImm:
        reg(in.r1) = static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::MovReg:
        reg(in.r1) = reg(in.r2);
        break;
      case Opcode::AddImm:
        reg(in.r1) += static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::AddReg:
        reg(in.r1) += reg(in.r2);
        break;
      case Opcode::SubImm:
        reg(in.r1) -= static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::SubReg:
        reg(in.r1) -= reg(in.r2);
        break;
      case Opcode::CmpImm:
        zeroFlag = reg(in.r1) == static_cast<std::uint64_t>(in.imm);
        lessFlag = static_cast<std::int64_t>(reg(in.r1)) < in.imm;
        break;
      case Opcode::CmpReg:
        zeroFlag = reg(in.r1) == reg(in.r2);
        lessFlag = static_cast<std::int64_t>(reg(in.r1)) <
            static_cast<std::int64_t>(reg(in.r2));
        break;
      case Opcode::TestReg:
        zeroFlag = (reg(in.r1) & reg(in.r2)) == 0;
        lessFlag = false;
        break;
      case Opcode::XorReg:
        reg(in.r1) ^= reg(in.r2);
        break;
      case Opcode::AndImm:
        reg(in.r1) &= static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::OrReg:
        reg(in.r1) |= reg(in.r2);
        break;
      case Opcode::ShlImm:
        reg(in.r1) <<= in.imm;
        break;
      case Opcode::ShrImm:
        reg(in.r1) >>= in.imm;
        break;

      case Opcode::Load:
      {
        const Addr a = reg(in.r2) + static_cast<Addr>(in.imm);
        reg(in.r1) = memory.load(a);
        dataAccess(a);
        break;
      }
      case Opcode::Store:
      {
        const Addr a = reg(in.r2) + static_cast<Addr>(in.imm);
        memory.store(a, reg(in.r1));
        dataAccess(a);
        break;
      }
      case Opcode::Push:
        reg(Reg::Esp) -= 8;
        memory.store(reg(Reg::Esp), reg(in.r1));
        dataAccess(reg(Reg::Esp));
        break;
      case Opcode::Pop:
        reg(in.r1) = memory.load(reg(Reg::Esp));
        dataAccess(reg(Reg::Esp));
        reg(Reg::Esp) += 8;
        break;

      case Opcode::Jmp:
        predictor.noteUncond(in.addr);
        countEvent(EventType::BrInstRetired);
        doTakenBranch(in, CodePtr{pc.block, in.targetIndex});
        break;
      case Opcode::Je:
        cond_branch(zeroFlag);
        break;
      case Opcode::Jne:
        cond_branch(!zeroFlag);
        break;
      case Opcode::Jl:
        cond_branch(lessFlag);
        break;
      case Opcode::Jge:
        cond_branch(!lessFlag);
        break;

      case Opcode::Call:
      {
        if (in.callee < 0)
            pca_panic("no block named '",
                      program->block(pc.block).calleeName(
                          static_cast<std::size_t>(pc.index)),
                      "'");
        predictor.noteUncond(in.addr);
        countEvent(EventType::BrInstRetired);
        callStack.push_back(CodePtr{pc.block, pc.index + 1});
        pc = CodePtr{in.callee, 0};
        pcRedirected = true;
        frontEnd.redirect(program->addr(pc));
        break;
      }
      case Opcode::Ret:
      {
        if (callStack.empty())
            pca_panic("ret with empty call stack in block ",
                      program->block(pc.block).name());
        countEvent(EventType::BrInstRetired);
        pc = callStack.back();
        callStack.pop_back();
        pcRedirected = true;
        frontEnd.redirect(program->addr(pc));
        break;
      }

      case Opcode::Rdtsc:
        if (curMode == Mode::User && !userRdtscOk)
            pca_panic("#GP: rdtsc in user mode with CR4.TSD set");
        reg(Reg::Eax) = pmuUnit.rdtsc();
        chargeCycles(static_cast<Cycles>(archRef.rdtscCycles));
        break;
      case Opcode::Rdpmc:
        if (curMode == Mode::User && !userRdpmcOk)
            pca_panic("#GP: rdpmc in user mode with CR4.PCE clear");
        reg(Reg::Eax) = pmuUnit.rdpmc(reg(Reg::Ecx));
        chargeCycles(static_cast<Cycles>(archRef.rdpmcCycles));
        break;
      case Opcode::Rdmsr:
        if (curMode != Mode::Kernel)
            pca_panic("#GP: rdmsr in user mode");
        reg(Reg::Eax) = pmuUnit.rdmsr(
            static_cast<std::uint32_t>(reg(Reg::Ecx)));
        chargeCycles(static_cast<Cycles>(archRef.rdmsrCycles));
        break;
      case Opcode::Wrmsr:
        if (curMode != Mode::Kernel)
            pca_panic("#GP: wrmsr in user mode");
        pmuUnit.wrmsr(static_cast<std::uint32_t>(reg(Reg::Ecx)),
                      reg(Reg::Eax));
        chargeCycles(static_cast<Cycles>(archRef.wrmsrCycles));
        break;

      case Opcode::Syscall:
        if (!syscallEntry.valid())
            pca_panic("syscall with no kernel attached");
        trapStack.push_back({CodePtr{pc.block, pc.index + 1},
                             curMode, false, zeroFlag, lessFlag,
                             pmuUnit.attrClass()});
        curMode = Mode::Kernel;
        // Kernel work from here until iret is the pattern's own
        // syscall service: charge it to the Syscall class.
        pmuUnit.setAttrClass(obs::AttrClass::Syscall);
        if (obs::traceEnabled())
            obs::tracer().begin("syscall", "kernel", cycleCount);
        chargeCycles(static_cast<Cycles>(archRef.syscallEntryCycles));
        pc = syscallEntry;
        pcRedirected = true;
        frontEnd.redirect(program->addr(pc));
        break;
      case Opcode::Iret:
      {
        if (trapStack.empty())
            pca_panic("iret with empty trap stack");
        chargeCycles(static_cast<Cycles>(archRef.syscallExitCycles));
        const SavedContext saved = trapStack.back();
        trapStack.pop_back();
        if (saved.fromInterrupt)
            activeVector = -1;
        curMode = saved.mode;
        pmuUnit.setAttrClass(saved.attrCls);
        if (obs::traceEnabled())
            obs::tracer().end(cycleCount);
        zeroFlag = saved.zeroFlag;
        lessFlag = saved.lessFlag;
        pc = saved.pc;
        pcRedirected = true;
        frontEnd.redirect(program->addr(pc));
        break;
      }

      case Opcode::Nop:
        break;
      case Opcode::Cpuid:
        chargeCycles(static_cast<Cycles>(archRef.cpuidCycles));
        break;
      case Opcode::Halt:
        halted = true;
        break;

      case Opcode::HostOp:
        pca_panic("HostOp reached execute()");
      default:
        pca_panic("unimplemented opcode ",
                  isa::opcodeName(in.op));
    }
}

void
Core::deliverInterrupt(int vector)
{
    interruptedAddr = program->addr(pc);
    trapStack.push_back(
        {pc, curMode, true, zeroFlag, lessFlag, pmuUnit.attrClass()});
    curMode = Mode::Kernel;
    const obs::AttrClass cls = obs::attrClassForVector(vector);
    pmuUnit.setAttrClass(cls);
    switch (cls) {
      case obs::AttrClass::Timer: PCA_SPC_INC(InterruptsTimer); break;
      case obs::AttrClass::Io: PCA_SPC_INC(InterruptsIo); break;
      default: PCA_SPC_INC(InterruptsPmi); break;
    }
    if (obs::traceEnabled())
        obs::tracer().begin(
            std::string("irq:") + obs::attrClassName(cls), "kernel",
            cycleCount);
    activeVector = vector;
    ++interruptCount;
    countEvent(EventType::HwInterrupt);
    chargeCycles(static_cast<Cycles>(archRef.interruptEntryCycles));
    pca_assert(interruptEntry.valid());
    pc = interruptEntry;
    frontEnd.redirect(program->addr(pc));
    poisonSinceBackward = true;
}

namespace
{

/**
 * Does a conditional branch in the loop body [head, branch) of @p blk
 * test flags derived from induction register @p ind, or does any
 * branch leave the body? Either makes the per-iteration cost a
 * function of the induction value whose period no cost ring bounds (a
 * branch on bit k repeats every 2^(k+1) iterations, and its costs can
 * match for a few iterations by coincidence), so repeating costs
 * would prove nothing. Register taint is flow-insensitive; flag taint
 * flows along the body's edges (compares overwrite it) and is
 * iterated to a fixed point, which keeps both conservative.
 */
bool
inductionSteersBody(const isa::CodeBlock &blk, int head, int branch,
                    Reg ind)
{
    static_assert(isa::numRegs <= 32);
    auto bit = [](Reg r) { return 1u << static_cast<unsigned>(r); };
    std::uint32_t tainted = bit(ind);
    // Flag taint on entry to each body instruction. The head inherits
    // the closing compare of the previous iteration.
    std::vector<char> flags_in(static_cast<std::size_t>(branch - head + 1));
    flags_in[0] = 1;
    for (bool changed = true; changed;) {
        changed = false;
        auto reach = [&](int target, bool f) {
            char &slot = flags_in[static_cast<std::size_t>(target - head)];
            if (f && slot == 0) {
                slot = 1;
                changed = true;
            }
        };
        for (int i = head; i < branch; ++i) {
            const Inst &in = blk.inst(static_cast<std::size_t>(i));
            bool f = flags_in[static_cast<std::size_t>(i - head)] != 0;
            switch (in.op) {
              case Opcode::MovReg:
              case Opcode::AddReg:
              case Opcode::SubReg:
              case Opcode::XorReg:
              case Opcode::OrReg:
                if ((tainted & bit(in.r2)) != 0 &&
                    (tainted & bit(in.r1)) == 0) {
                    tainted |= bit(in.r1);
                    changed = true;
                }
                break;
              case Opcode::CmpImm:
                f = (tainted & bit(in.r1)) != 0;
                break;
              case Opcode::CmpReg:
              case Opcode::TestReg:
                f = (tainted & (bit(in.r1) | bit(in.r2))) != 0;
                break;
              case Opcode::Jmp:
              case Opcode::Je:
              case Opcode::Jne:
              case Opcode::Jl:
              case Opcode::Jge:
                if (in.targetIndex < head || in.targetIndex > branch ||
                    (in.op != Opcode::Jmp && f))
                    return true;
                reach(in.targetIndex, f);
                if (in.op == Opcode::Jmp)
                    continue; // no fall-through
                break;
              default:
                break;
            }
            reach(i + 1, f);
        }
    }
    return false;
}

} // namespace

void
Core::maybeFastForwardKeyed(std::uint64_t key, const Inst &branch,
                            int branch_index)
{
    // Bulk-applying counts would skip overflow thresholds (and rob
    // the profiler of per-retire ground truth): sampling sessions
    // and profiled runs force pure interpretation.
    if (pmuUnit.samplingActive() || prof != nullptr)
        return;
    LoopFf &lf = loops[key];
    if (lf.unsafe != obs::Spc::NumSpcs) {
        obs::spcInc(lf.unsafe);
        return;
    }
    if (poisonSinceBackward) {
        lf.headTaken = false;
        lf.costs.clear();
        poisonSinceBackward = false;
        return;
    }

    const auto user = static_cast<std::size_t>(Mode::User);
    auto snapshot = [&] {
        lf.headRegs = regs;
        lf.head.instr = instrPerMode[user];
        lf.head.cycles = cycleCount;
        for (std::size_t e = 0; e < numEvents; ++e)
            lf.head.events[e] = rawEv[e][user];
    };
    auto refuse = [&](obs::Spc why) {
        lf.unsafe = why;
        obs::spcInc(why);
    };

    if (!lf.headTaken) {
        snapshot();
        lf.headTaken = true;
        return;
    }

    // This iteration's cost.
    IterCost d;
    d.instr = instrPerMode[user] - lf.head.instr;
    d.cycles = cycleCount - lf.head.cycles;
    for (std::size_t e = 0; e < numEvents; ++e)
        d.events[e] = rawEv[e][user] - lf.head.events[e];

    int changed = -1;
    std::int64_t step_val = 0;
    for (std::size_t r = 0; r < isa::numRegs; ++r) {
        if (regs[r] != lf.headRegs[r]) {
            if (changed >= 0) {
                refuse(obs::Spc::FfRejectMultireg);
                return;
            }
            changed = static_cast<int>(r);
            step_val = static_cast<std::int64_t>(
                regs[r] - lf.headRegs[r]);
        }
    }
    if (changed < 0) {
        refuse(obs::Spc::FfRejectIdiom); // no induction variable
        return;
    }

    // Costs are comparable only along one induction (register, step).
    if (changed != lf.changedReg || step_val != lf.step)
        lf.costs.clear();
    lf.changedReg = changed;
    lf.step = step_val;
    lf.costs.push(d);
    snapshot();

    const int p = lf.costs.period();
    if (p == 0) {
        // Still warming up, or a period beyond the ring: charge the
        // first field the newest cost does not repeat.
        if (lf.costs.size() >= 2) {
            const IterCost &prev = lf.costs.ago(1);
            obs::spcInc(d.instr != prev.instr ? obs::Spc::FfRejectInstr
                        : d.cycles != prev.cycles
                            ? obs::Spc::FfRejectCycles
                            : obs::Spc::FfRejectEvents);
        }
        return;
    }

    // Steady state confirmed: extrapolate. The loop idiom must be
    //   cmp_imm R, T ; jne/jl back
    if (branch_index < 1) {
        refuse(obs::Spc::FfRejectIdiom);
        return;
    }
    const Inst &cmp = program->inst(CodePtr{pc.block, branch_index - 1});
    if (cmp.op != Opcode::CmpImm ||
        cmp.r1 != static_cast<Reg>(changed)) {
        refuse(obs::Spc::FfRejectIdiom);
        return;
    }
    if (inductionSteersBody(program->block(pc.block), pc.index,
                            branch_index, cmp.r1)) {
        refuse(obs::Spc::FfRejectIdiom);
        return;
    }
    const std::int64_t target = cmp.imm;
    const auto cur =
        static_cast<std::int64_t>(regs[static_cast<std::size_t>(changed)]);

    std::int64_t n; // iterations remaining until the branch falls through
    if (branch.op == Opcode::Jne) {
        const std::int64_t dist = target - cur;
        if (dist % step_val != 0 || dist / step_val <= 0) {
            refuse(obs::Spc::FfRejectIdiom);
            return;
        }
        n = dist / step_val;
    } else if (branch.op == Opcode::Jl && step_val > 0) {
        const std::int64_t dist = target - cur;
        if (dist <= 0)
            return;
        n = (dist + step_val - 1) / step_val;
    } else {
        refuse(obs::Spc::FfRejectIdiom);
        return;
    }

    // Whole periods only, leaving the final iteration interpreted:
    // the ring then stays phase-aligned across the skip.
    std::int64_t k = (n - 1) / p;
    if (k <= 0)
        return;

    const IterCost per = lf.costs.sum(p);
    if (intClient && per.cycles > 0) {
        const Cycles next = intClient->nextInterruptCycle();
        const auto k_int = next <= cycleCount
            ? 0
            : static_cast<std::int64_t>((next - cycleCount) / per.cycles);
        k = std::min(k, k_int);
        if (k <= 0) {
            // Interrupt due within a period: interpret towards it.
            PCA_SPC_INC(FfRejectIrq);
            return;
        }
    }

    // Bulk-apply k periods.
    const auto ku = static_cast<Count>(k);
    const Count iters = ku * static_cast<Count>(p);
    regs[static_cast<std::size_t>(changed)] +=
        static_cast<std::uint64_t>(step_val) * iters;
    instrPerMode[user] += per.instr * ku;
    cycleCount += per.cycles * ku;
    cyclesPerMode[user] += per.cycles * ku;
    pmuUnit.addCycles(per.cycles * ku, Mode::User);
    for (std::size_t e = 0; e < numEvents; ++e) {
        if (per.events[e] == 0 ||
            e == static_cast<std::size_t>(EventType::CpuClkUnhalted))
            continue;
        rawEv[e][user] += per.events[e] * ku;
        pmuUnit.count(static_cast<EventType>(e), Mode::User,
                      per.events[e] * ku);
    }
    ffIters += iters;
    PCA_SPC_ADD(FastForwardIters, iters);
    if (p > 1)
        PCA_SPC_ADD(FfPeriodicIters, iters);
    snapshot(); // head reflects post-bulk state
}

std::vector<Addr>
Core::callChainAddrs() const
{
    std::vector<Addr> out;
    out.reserve(callStack.size());
    for (const CodePtr &ret : callStack) {
        // Return site = instruction after the call; a call as the
        // last instruction of a block has no successor to name, so
        // fall back to the call itself.
        const isa::CodeBlock &blk = program->block(ret.block);
        const std::size_t idx = static_cast<std::size_t>(ret.index);
        out.push_back(idx < blk.size() ? program->addr(ret)
                                       : blk.inst(blk.size() - 1).addr);
    }
    return out;
}

void
Core::reset()
{
    pmuUnit.reset();
    frontEnd.reset();
    predictor.reset();
    icache.flush();
    itlb.flush();
    dcache.flush();
    l2.flush();
    dtlb.flush();
    regs.fill(0);
    reg(Reg::Esp) = 0xbfff0000ULL;
    zeroFlag = false;
    lessFlag = false;
    curMode = Mode::User;
    callStack.clear();
    trapStack.clear();
    memory.clear();
    cycleCount = 0;
    cyclesPerMode.fill(0);
    instrPerMode.fill(0);
    for (auto &per_event : rawEv)
        per_event.fill(0);
    interruptCount = 0;
    ffIters = 0;
    halted = false;
    pcRedirected = false;
    activeVector = -1;
    interruptedAddr = 0;
    pmiCounter = -1;
    // CR4 bits return to power-on defaults: the measurement program
    // re-enables user RDPMC through its own setup path, exactly as
    // it would on a freshly booted machine.
    userRdpmcOk = false;
    userRdtscOk = true;
    loops.clear();
    poisonSinceBackward = true;
    lastFetchLine = ~Addr{0};
    lastFetchPage = ~Addr{0};
}

} // namespace pca::cpu
