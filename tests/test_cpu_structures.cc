/**
 * @file
 * Unit tests for the micro-architectural structures: cache model,
 * branch predictor, front-end fetch model, and data memory.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/cache.hh"
#include "cpu/frontend.hh"
#include "cpu/memory.hh"
#include "cpu/microarch.hh"
#include "cpu/predictor.hh"
#include "support/random.hh"

namespace pca::cpu
{
namespace
{

TEST(Cache, MissThenHit)
{
    CacheModel c(64, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    CacheModel c(1, 2, 64); // one set, two ways
    c.access(0x0000);
    c.access(0x1000);
    c.access(0x0000);      // refresh line 0
    c.access(0x2000);      // evicts 0x1000 (LRU)
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, SetIndexingSeparatesLines)
{
    CacheModel c(4, 1, 64);
    // These map to different sets: no conflict.
    c.access(0 * 64);
    c.access(1 * 64);
    c.access(2 * 64);
    c.access(3 * 64);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(3 * 64));
    // Same set as line 0 in a 4-set direct-mapped cache.
    c.access(4 * 64);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, FlushInvalidates)
{
    CacheModel c(8, 2, 64);
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, TlbGeometryWorks)
{
    CacheModel tlb(1, 32, 4096); // fully associative, 32 entries
    for (Addr p = 0; p < 32; ++p)
        EXPECT_FALSE(tlb.access(p * 4096));
    for (Addr p = 0; p < 32; ++p)
        EXPECT_TRUE(tlb.access(p * 4096));
    EXPECT_FALSE(tlb.access(32 * 4096)); // evicts page 0 (LRU)
    EXPECT_FALSE(tlb.contains(0));
}

/**
 * The cache model as it was before epoch flushes: a valid bit per
 * way, cleared one by one on flush. accessHot() has access()'s exact
 * semantics, so the reference needs no memo.
 */
class ValidBitCache
{
  public:
    ValidBitCache(int sets, int ways, int line_bytes)
        : numSets(sets), numWays(ways),
          ways_(static_cast<std::size_t>(sets) * ways)
    {
        while ((1 << shift) < line_bytes)
            ++shift;
    }

    bool
    access(Addr addr)
    {
        const std::size_t base = set(addr) * numWays;
        const Addr tag = addr >> shift;
        ++clock;
        std::size_t victim = base;
        std::uint64_t oldest = UINT64_MAX;
        for (std::size_t w = base; w < base + numWays; ++w) {
            Way &way = ways_[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = clock;
                ++hitCount;
                return true;
            }
            const std::uint64_t age = way.valid ? way.lastUse : 0;
            if (age < oldest) {
                oldest = age;
                victim = w;
            }
        }
        ways_[victim] = {tag, true, clock};
        ++missCount;
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const std::size_t base = set(addr) * numWays;
        for (std::size_t w = base; w < base + numWays; ++w)
            if (ways_[w].valid && ways_[w].tag == addr >> shift)
                return true;
        return false;
    }

    void
    flush()
    {
        for (Way &way : ways_)
            way.valid = false;
        clock = 0;
    }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t
    set(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> shift) &
                                        static_cast<Addr>(numSets - 1));
    }

    int numSets;
    std::size_t numWays;
    int shift = 0;
    std::vector<Way> ways_;
    std::uint64_t clock = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/** A CacheModel and its valid-bit reference driven in lockstep. */
struct CachePair
{
    CacheModel epoch;
    ValidBitCache ref;
    Rng rng;

    CachePair(int sets, int ways, int line_bytes, std::uint64_t seed)
        : epoch(sets, ways, line_bytes), ref(sets, ways, line_bytes),
          rng(seed)
    {
    }

    /**
     * A random address that lands in one of the first few sets with
     * one of ways + 3 tags, so sets overflow and LRU victims matter
     * even in a 64K-way L2.
     */
    Addr
    address()
    {
        const auto sets = static_cast<Addr>(epoch.sets());
        const auto line = static_cast<Addr>(epoch.lineBytes());
        const Addr set = rng.nextBelow(std::min<Addr>(sets, 4));
        const Addr tag =
            rng.nextBelow(static_cast<Addr>(epoch.ways()) + 3);
        return (tag * sets + set) * line + rng.nextBelow(line);
    }

    /** One random operation on both models; false on disagreement. */
    bool
    step(bool allow_flush)
    {
        const Addr a = address();
        switch (rng.nextBelow(allow_flush ? 4 : 3)) {
          case 0:
            if (epoch.access(a) != ref.access(a))
                return false;
            break;
          case 1:
            if (epoch.accessHot(a) != ref.access(a))
                return false;
            break;
          case 2:
            if (epoch.contains(a) != ref.contains(a))
                return false;
            break;
          default:
            epoch.flush();
            ref.flush();
        }
        return epoch.hits() == ref.hits() &&
            epoch.misses() == ref.misses();
    }
};

TEST(CacheEpoch, MatchesValidBitModelOnEveryGeometry)
{
    struct Geometry
    {
        int sets, ways, line;
    };
    std::vector<Geometry> geometries = {
        {1, 1, 64}, {1, 2, 64}, {4, 1, 64}, {8, 4, 32}, {16, 8, 64}};
    for (Processor p : allProcessors()) {
        const MicroArch &m = microArch(p);
        geometries.push_back(
            {m.icacheSets, m.icacheWays, m.icacheLineBytes});
        geometries.push_back({std::max(1, m.itlbEntries / m.itlbWays),
                              m.itlbWays, 4096});
        geometries.push_back(
            {m.dcacheSets, m.dcacheWays, m.dcacheLineBytes});
        geometries.push_back({m.l2Sets, m.l2Ways, m.l2LineBytes});
        // Fully associative on K8 and NetBurst.
        geometries.push_back({std::max(1, m.dtlbEntries / m.dtlbWays),
                              m.dtlbWays, 4096});
        // The branch predictor's BTB: 1-way on K8.
        geometries.push_back({m.btbSets, m.btbWays, 4});
    }
    std::uint64_t seed = 1;
    for (const Geometry &g : geometries) {
        CachePair pair(g.sets, g.ways, g.line, seed++);
        for (int i = 0; i < 20000; ++i)
            ASSERT_TRUE(pair.step(/*allow_flush=*/true))
                << g.sets << "x" << g.ways << "x" << g.line
                << " diverged at operation " << i;
    }
}

TEST(CacheEpoch, WraparoundClearsStaleWays)
{
    // A line filled in the first epoch and never touched again must
    // stay invalid across the flush that wraps the epoch counter:
    // without the clear it would read as valid again.
    const auto period = static_cast<long>(
        std::numeric_limits<CacheModel::Epoch>::max());
    CacheModel c(4, 2, 64);
    ValidBitCache ref(4, 2, 64);
    EXPECT_FALSE(c.access(0x40));
    ref.access(0x40);
    for (long f = 1; f <= 2 * period + 2; ++f) {
        c.flush();
        ref.flush();
        ASSERT_FALSE(c.contains(0x40)) << "after " << f << " flushes";
    }
    EXPECT_FALSE(c.access(0x40));
    ref.access(0x40);

    // Random traffic across several wraps, flushing often.
    CachePair pair(4, 2, 64, 7);
    for (long i = 0; i < 3 * period; ++i) {
        pair.epoch.flush();
        pair.ref.flush();
        for (int k = 0; k < 3; ++k)
            ASSERT_TRUE(pair.step(/*allow_flush=*/false))
                << "diverged after " << i << " flushes";
    }
    EXPECT_EQ(c.hits(), ref.hits());
    EXPECT_EQ(c.misses(), ref.misses());
}

TEST(WordMemory, UnwrittenReadsZeroAndStoresOverwrite)
{
    WordMemory m;
    EXPECT_EQ(m.load(0xbfff0000), 0u);
    m.store(0xbfff0000, 7);
    m.store(0xbfff0000, 9);
    EXPECT_EQ(m.load(0xbfff0000), 9u);
    EXPECT_EQ(m.load(0xbffefff8), 0u);
    // A read never inserts: only the one written address is held.
    EXPECT_EQ(m.size(), 1u);
    m.store(0, 0); // address 0 and value 0 are ordinary keys
    EXPECT_EQ(m.load(0), 0u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(WordMemory, GrowsPastInitialCapacityAndClearsInConstantTime)
{
    // Against a reference map: random stack-like and scattered
    // addresses, enough to grow the table several times, with
    // clears in between. After a clear, every address reads 0 again.
    WordMemory m;
    std::unordered_map<Addr, std::uint64_t> ref;
    Rng rng(42);
    const std::size_t n = 40 * WordMemory::initialCapacity;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            const Addr a = rng.nextBool(0.5)
                ? 0xbfff0000 - 8 * rng.nextBelow(512)
                : rng.next();
            const std::uint64_t v = rng.next();
            m.store(a, v);
            ref[a] = v;
            const Addr probe = 0xbfff0000 - 8 * rng.nextBelow(1024);
            const auto it = ref.find(probe);
            ASSERT_EQ(m.load(probe), it == ref.end() ? 0 : it->second);
        }
        EXPECT_EQ(m.size(), ref.size());
        EXPECT_GT(m.capacity(), WordMemory::initialCapacity);
        EXPECT_LE(2 * m.size(), m.capacity());
        for (const auto &[a, v] : ref)
            ASSERT_EQ(m.load(a), v);

        const std::size_t cap = m.capacity();
        m.clear();
        EXPECT_EQ(m.size(), 0u);
        EXPECT_EQ(m.capacity(), cap);
        for (const auto &[a, v] : ref)
            ASSERT_EQ(m.load(a), 0u) << "stale word survived clear";
        ref.clear();
    }
}

TEST(Predictor, LoopBranchWarmsUp)
{
    BranchPredictor bp(512, 4);
    // First taken: predicted not-taken (weak init) -> mispredict.
    EXPECT_TRUE(bp.predictAndTrain(0x1000, true));
    // Second taken: counter now at 2 -> predicted taken, but only
    // warmed BTB: should be correct now.
    EXPECT_FALSE(bp.predictAndTrain(0x1000, true));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(bp.predictAndTrain(0x1000, true));
    // Loop exit mispredicts once.
    EXPECT_TRUE(bp.predictAndTrain(0x1000, false));
}

TEST(Predictor, NotTakenBranchPredictsWell)
{
    BranchPredictor bp(512, 4);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(bp.predictAndTrain(0x2000, false));
    EXPECT_EQ(bp.mispredicts(), 0u);
}

TEST(Predictor, ResetForgets)
{
    BranchPredictor bp(512, 4);
    bp.predictAndTrain(0x1000, true);
    bp.predictAndTrain(0x1000, true);
    bp.reset();
    EXPECT_TRUE(bp.predictAndTrain(0x1000, true));
    EXPECT_EQ(bp.mispredicts(), 1u);
    EXPECT_EQ(bp.lookups(), 1u);
}

/** Cycles for one steady-state loop iteration at a given placement. */
Cycles
loopIterCycles(const MicroArch &arch, Addr body_addr)
{
    FrontEnd fe(arch);
    // Loop body: add(3B) cmp(5B) jne(2B), branch back to body_addr.
    const Addr add = body_addr, cmp = body_addr + 3,
               jne = body_addr + 8;
    Cycles last = 0;
    // Warm up, then measure one iteration.
    for (int iter = 0; iter < 6; ++iter) {
        Cycles c = 0;
        c += fe.onInst(add, 3);
        c += fe.onInst(cmp, 5);
        c += fe.onInst(jne, 2);
        c += fe.onTakenBranch(jne, jne + 2, add);
        last = c;
    }
    return last;
}

TEST(FrontEndTest, K8LoopIsTwoOrThreeCyclesPerIteration)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    bool saw2 = false, saw3 = false;
    for (Addr off = 0; off < 16; ++off) {
        const Cycles c = loopIterCycles(k8, 0x08048100 + off);
        EXPECT_GE(c, 2u);
        EXPECT_LE(c, 3u);
        saw2 |= c == 2;
        saw3 |= c == 3;
    }
    // Both modes of Figure 11 must be reachable by placement alone.
    EXPECT_TRUE(saw2);
    EXPECT_TRUE(saw3);
}

TEST(FrontEndTest, K8AlignedLoopTakesTwoCycles)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    EXPECT_EQ(loopIterCycles(k8, 0x08048100), 2u);
}

TEST(FrontEndTest, K8SplitLoopTakesThreeCycles)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    // Body at offset 10 mod 16: cmp crosses the fetch window.
    EXPECT_EQ(loopIterCycles(k8, 0x0804810a), 3u);
}

TEST(FrontEndTest, Core2LsdGivesOneCyclePerIteration)
{
    const auto &cd = microArch(Processor::Core2Duo);
    // Body comfortably inside one 64-byte line.
    EXPECT_EQ(loopIterCycles(cd, 0x08048100), 1u);
}

TEST(FrontEndTest, Core2LineCrossingDisablesLsd)
{
    const auto &cd = microArch(Processor::Core2Duo);
    // Body at offset 58 mod 64 crosses the i-cache line: no LSD.
    const Cycles c = loopIterCycles(cd, 0x08048100 + 58);
    EXPECT_GT(c, 1u);
}

TEST(FrontEndTest, PentiumDRangeCoversPaperSpread)
{
    const auto &pd = microArch(Processor::PentiumD);
    // Measure average over many iterations (replay alternates).
    auto avg_cycles = [&](Addr body) {
        FrontEnd fe(pd);
        const Addr add = body, cmp = body + 3, jne = body + 8;
        Cycles total = 0;
        constexpr int iters = 200;
        for (int i = 0; i < iters; ++i) {
            total += fe.onInst(add, 3);
            total += fe.onInst(cmp, 5);
            total += fe.onInst(jne, 2);
            total += fe.onTakenBranch(jne, jne + 2, add);
        }
        return static_cast<double>(total) / iters;
    };
    double lo = 1e9, hi = 0;
    for (Addr off = 0; off < 128; off += 2) {
        const double c = avg_cycles(0x08048000 + off);
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    // Paper: PD cycles/iteration spread roughly 1.5..4.
    EXPECT_NEAR(lo, 1.5, 0.3);
    EXPECT_GE(hi, 3.0);
    EXPECT_LE(hi, 4.5);
}

TEST(FrontEndTest, SequentialCodeBoundedByDecodeWidth)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    FrontEnd fe(k8);
    // 300 one-byte instructions: at least ceil(300/3) issue cycles.
    Cycles total = 0;
    for (int i = 0; i < 300; ++i)
        total += fe.onInst(0x1000 + static_cast<Addr>(i), 1);
    EXPECT_GE(total, 100u);
    EXPECT_LE(total, 140u); // plus ~1 fetch cycle per 16 bytes
}

TEST(FrontEndTest, RedirectResetsState)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    FrontEnd fe(k8);
    fe.onInst(0x1000, 3);
    fe.redirect(0x2000);
    EXPECT_FALSE(fe.lsdActive());
    // Redirect already steered fetch to the target window: the first
    // instruction there costs no extra fetch cycle...
    EXPECT_EQ(fe.onInst(0x2000, 3), 0u);
    // ...but code in a different window does.
    EXPECT_GE(fe.onInst(0x2040, 3), 1u);
}

/** Front-end state a NOP run can start from. */
enum class Entry
{
    Reset,        //!< power-on: no current window
    SameWindow,   //!< fetch already in the run's first window
    OtherWindow,  //!< fetch in the window before the run's first
    Streaming,    //!< the loop-stream detector feeds the decoder
};

/**
 * Put @p fe in state @p entry for a run starting at @p addr, with
 * @p issued instructions in the current decode group.
 */
void
prime(FrontEnd &fe, const MicroArch &arch, Entry entry, Addr addr,
      int issued)
{
    fe.reset();
    const auto window = static_cast<Addr>(arch.fetchBytes);
    Addr at = addr;
    switch (entry) {
      case Entry::Reset:
        break;
      case Entry::SameWindow:
        fe.redirect(addr);
        break;
      case Entry::OtherWindow:
        at = addr - window;
        fe.redirect(at);
        break;
      case Entry::Streaming:
      {
        // The same short backward branch taken twice engages the LSD.
        const Addr line = static_cast<Addr>(arch.icacheLineBytes);
        const Addr head = 0x2000 * line;
        fe.onTakenBranch(head + 8, head + 10, head);
        fe.onTakenBranch(head + 8, head + 10, head);
        break;
      }
    }
    for (int i = 0; i < issued; ++i)
        fe.onInst(at, 1);
}

TEST(FrontEndTest, NopRunMatchesPerInstructionCharging)
{
    // onNopRun(addr, n) must charge exactly what n single-byte
    // onInst calls charge and leave the same cursor behind: on every
    // processor, streaming or not, from every offset in an icache
    // line (so every offset in a fetch window), with every decode
    // group fill, for runs that stay in a window or cross windows,
    // lines and pages.
    for (const Processor p : {Processor::PentiumD, Processor::Core2Duo,
                              Processor::AthlonX2}) {
        const MicroArch &arch = microArch(p);
        std::vector<Entry> entries = {Entry::Reset, Entry::SameWindow,
                                      Entry::OtherWindow};
        if (arch.loopStreamDetector)
            entries.push_back(Entry::Streaming);
        const auto w = static_cast<Count>(arch.fetchBytes);
        const auto line = static_cast<Count>(arch.icacheLineBytes);
        const Count lengths[] = {0, 1, 2, 3, 4, 5, w - 1, w, w + 1,
                                 2 * w + 3, line - 1, line, line + 1,
                                 3 * line + 7, 4096 + 17};
        // The line before a page boundary: long runs cross the page.
        const Addr base = 0x08049000 - line;
        for (const Entry entry : entries)
            for (Addr off = 0; off < line; ++off)
                for (int issued = 0; issued < arch.decodeWidth; ++issued)
                    for (const Count n : lengths) {
                        const Addr addr = base + off;
                        FrontEnd bulk(arch), each(arch);
                        prime(bulk, arch, entry, addr, issued);
                        prime(each, arch, entry, addr, issued);
                        ASSERT_EQ(bulk.lsdActive(),
                                  entry == Entry::Streaming);

                        Cycles want = 0;
                        for (Count i = 0; i < n; ++i)
                            want += each.onInst(addr + i, 1);
                        const Cycles got = bulk.onNopRun(addr, n);
                        ASSERT_EQ(got, want)
                            << processorCode(p) << " entry "
                            << static_cast<int>(entry) << " off " << off
                            << " issued " << issued << " n " << n;
                        ASSERT_EQ(bulk.cursor(), each.cursor())
                            << processorCode(p) << " entry "
                            << static_cast<int>(entry) << " off " << off
                            << " issued " << issued << " n " << n;
                        ASSERT_EQ(bulk.lsdActive(), each.lsdActive());
                    }
    }
}

} // namespace
} // namespace pca::cpu
