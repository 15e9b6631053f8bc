#include "src/sim/sweep.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/fingerprint.hh"
#include "src/util/bitops.hh"
#include "src/util/logging.hh"
#include "src/workloads/workload.hh"

namespace conopt::sim {

// envScale()/envThreads()/parseShard() live in src/sim/request.cc
// with the canonical RunOptions schema.

namespace {

/** FNV-1a over the label, avalanched: the per-job seed. */
uint64_t
seedFor(const std::string &label, unsigned scale)
{
    uint64_t h = kFnv1aOffsetBasis;
    for (char c : label)
        h = fnv1aByte(h, uint8_t(c));
    h ^= scale;
    h = avalanche64(h);
    return h ? h : 1;
}

/** Resolve names/defaults so workers see a fully-specified job.
 *  @p scaleMul is the workload scale multiplier (CONOPT_SCALE). */
void
normalize(SimJob &job, unsigned scaleMul)
{
    if (job.label.empty()) {
        if (job.workload.empty() && !job.configName.empty())
            job.label = job.configName;
        else
            job.label = SweepSpec::labelFor(job.workload, job.configName);
    }
    if (!job.program) {
        const auto *w = workloads::findWorkload(job.workload);
        if (!w)
            conopt_fatal("sweep job '%s': unknown workload '%s'",
                         job.label.c_str(), job.workload.c_str());
        if (job.scale == 0)
            job.scale = w->defaultScale * scaleMul;
    } else if (job.scale == 0) {
        // Pre-built programs have no registry defaultScale, but must
        // still be fully specified: the scale feeds the seed
        // derivation, the artifact record, and the result-cache key.
        // A bare program is the scale-multiplier of a defaultScale-1
        // job.
        job.scale = scaleMul;
    }
    if (job.seed == 0)
        job.seed = seedFor(job.label, job.scale);
}

} // namespace

// --------------------------------------------------------------------------
// SweepSpec
// --------------------------------------------------------------------------

SweepSpec &
SweepSpec::workload(const std::string &name)
{
    workloads_.push_back(name);
    return *this;
}

SweepSpec &
SweepSpec::workloads(const std::vector<std::string> &names)
{
    workloads_.insert(workloads_.end(), names.begin(), names.end());
    return *this;
}

SweepSpec &
SweepSpec::suite(const std::string &suite)
{
    for (const auto *w : workloads::suiteWorkloads(suite))
        workloads_.push_back(w->name);
    return *this;
}

SweepSpec &
SweepSpec::allWorkloads()
{
    for (const auto &w : workloads::allWorkloads())
        workloads_.push_back(w.name);
    return *this;
}

SweepSpec &
SweepSpec::config(const std::string &name,
                  const pipeline::MachineConfig &cfg)
{
    configs_.emplace_back(name, cfg);
    return *this;
}

SweepSpec &
SweepSpec::scale(unsigned s)
{
    scale_ = s;
    return *this;
}

SweepSpec &
SweepSpec::maxInsts(uint64_t n)
{
    maxInsts_ = n;
    return *this;
}

std::string
SweepSpec::labelFor(const std::string &workload,
                    const std::string &configName)
{
    return workload + "/" + configName;
}

std::vector<SimJob>
SweepSpec::jobs() const
{
    std::vector<SimJob> out;
    out.reserve(workloads_.size() * configs_.size());
    for (const auto &w : workloads_) {
        for (const auto &[name, cfg] : configs_) {
            SimJob j;
            j.label = labelFor(w, name);
            j.workload = w;
            j.scale = scale_;
            j.config = cfg;
            j.configName = name;
            j.maxInsts = maxInsts_;
            out.push_back(std::move(j));
        }
    }
    return out;
}

// --------------------------------------------------------------------------
// ProgramCache
// --------------------------------------------------------------------------

ProgramPtr
ProgramCache::get(const std::string &workload, unsigned scale)
{
    std::promise<ProgramPtr> promise;
    std::shared_future<ProgramPtr> future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = cache_.try_emplace({workload, scale});
        if (inserted) {
            it->second = promise.get_future().share();
            builder = true;
        } else {
            hits_.fetch_add(1);
        }
        future = it->second;
    }
    if (builder) {
        const auto &w = workloads::workloadByName(workload);
        auto prog =
            std::make_shared<const assembler::Program>(w.build(scale));
        builds_.fetch_add(1);
        promise.set_value(prog);
        return prog;
    }
    return future.get();
}

// --------------------------------------------------------------------------
// SweepResult
// --------------------------------------------------------------------------

void
SweepResult::add(JobResult r)
{
    const auto [it, inserted] =
        byLabel_.emplace(r.job.label, results_.size());
    if (!inserted)
        conopt_fatal("duplicate sweep job label '%s'",
                     r.job.label.c_str());
    results_.push_back(std::move(r));
}

const JobResult *
SweepResult::find(const std::string &label) const
{
    const auto it = byLabel_.find(label);
    return it == byLabel_.end() ? nullptr : &results_[it->second];
}

const JobResult &
SweepResult::at(const std::string &label) const
{
    const JobResult *r = find(label);
    if (!r)
        conopt_fatal("no sweep result labelled '%s'", label.c_str());
    return *r;
}

uint64_t
SweepResult::cycles(const std::string &label) const
{
    return at(label).sim.stats.cycles;
}

double
SweepResult::ipc(const std::string &label) const
{
    return at(label).sim.ipc();
}

double
SweepResult::speedup(const std::string &baseLabel,
                     const std::string &label) const
{
    const JobResult *base = find(baseLabel);
    const JobResult *other = find(label);
    if (!base || !other || other->sim.stats.cycles == 0)
        return 0.0;
    return double(base->sim.stats.cycles) /
           double(other->sim.stats.cycles);
}

double
SweepResult::speedupOf(const std::string &workload,
                       const std::string &configName,
                       const std::string &baseConfig) const
{
    return speedup(SweepSpec::labelFor(workload, baseConfig),
                   SweepSpec::labelFor(workload, configName));
}

// --------------------------------------------------------------------------
// SweepRunner
// --------------------------------------------------------------------------

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    if (opts_.cache) {
        cache_ = opts_.cache;
    } else {
        owned_ = std::make_unique<ProgramCache>();
        cache_ = owned_.get();
    }
}

std::string
SweepRunner::programFp(const ProgramPtr &program)
{
    {
        std::lock_guard<std::mutex> lock(fpMu_);
        const auto it = programFps_.find(program.get());
        if (it != programFps_.end())
            return it->second;
    }
    // Hash outside the lock so distinct programs fingerprint in
    // parallel; two workers racing on the same program just compute
    // it twice (identical values, one wins the emplace).
    std::string fp = programFingerprint(*program);
    std::lock_guard<std::mutex> lock(fpMu_);
    return programFps_.emplace(program.get(), std::move(fp))
        .first->second;
}

JobResult
SweepRunner::runOne(const SimJob &job)
{
    JobResult r;
    r.job = job;
    const ProgramPtr program =
        job.program ? job.program : cache_->get(job.workload, job.scale);
    if (!job.workload.empty()) {
        if (const auto *w = workloads::findWorkload(job.workload))
            r.suite = w->suite;
    }
    const auto t0 = std::chrono::steady_clock::now();
    ResultCache *rc = opts_.resultCache.get();
    ResultCache::Key key;
    if (rc) {
        key.programFingerprint = programFp(program);
        key.configFingerprint = configFingerprint(job.config);
        key.simFingerprint = selfExeFingerprint();
        key.scale = job.scale;
        key.seed = job.seed;
        key.maxInsts = job.maxInsts;
        r.fromCache = rc->lookup(key, &r.sim);
    }
    if (!r.fromCache) {
        // One long-lived session per worker thread: every job this
        // thread runs reuses the same emulator/core storage instead of
        // constructing a fresh pair (bit-identical results either way;
        // tests/test_session.cc pins the equivalence).
        static thread_local SimSession session;
        // The session is sticky across jobs, so sampling must be
        // (re)armed — or disarmed — for every job, with the job's own
        // deterministic seed: per-job reservoirs never depend on which
        // worker thread ran the job or what ran on it before.
        session.setIpcSampling(opts_.run.ipcSampleInterval,
                               opts_.ipcReservoirCapacity, job.seed);
        // Time the simulation alone: the kips trend must not move
        // with cache fingerprinting or the rc->store() disk write.
        const auto s0 = std::chrono::steady_clock::now();
        r.sim = session.simulate(program, job.config, job.maxInsts);
        const auto s1 = std::chrono::steady_clock::now();
        r.simSeconds = std::chrono::duration<double>(s1 - s0).count();
        if (r.simSeconds > 0.0)
            r.kips = double(r.sim.instructions) / r.simSeconds / 1e3;
        if (rc)
            rc->store(key, r.sim);
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.hostSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return r;
}

SweepResult
SweepRunner::run(std::vector<SimJob> jobs)
{
    // Normalize and validate the FULL job list on the calling thread,
    // so configuration errors are fatal before any worker starts and
    // every shard of the same sweep agrees on labels and positions.
    {
        std::set<std::string> seen;
        const unsigned scaleMul = envScale();
        for (auto &job : jobs) {
            normalize(job, scaleMul);
            if (!seen.insert(job.label).second)
                conopt_fatal("duplicate sweep job label '%s'",
                             job.label.c_str());
        }
    }

    // Keep only this shard's slice (round-robin over submission order,
    // so the partition is balanced and depends only on job position).
    const ShardSpec shard = opts_.run.shard;
    if (shard.count == 0 || shard.index >= shard.count)
        conopt_fatal("invalid sweep shard %u/%u (want index < count)",
                     shard.index, shard.count);
    if (shard.active()) {
        std::vector<SimJob> mine;
        mine.reserve(jobs.size() / shard.count + 1);
        for (size_t i = 0; i < jobs.size(); ++i)
            if (shard.contains(i))
                mine.push_back(std::move(jobs[i]));
        jobs.swap(mine);
    }

    {
        // Program objects from a previous run() may be gone; never let
        // the fingerprint memo match a recycled address.
        std::lock_guard<std::mutex> lock(fpMu_);
        programFps_.clear();
    }

    // Batched execution: jobs sharing a program source at one (scale,
    // maxInsts) form a group a single worker runs back-to-back, so the
    // worker's warm session never rebinds programs mid-group — the
    // pre-decode table and resident memory image stay hot and only the
    // MachineConfig changes. Groups (and positions within a group)
    // follow submission order, and results land at submission indices,
    // so the output does not depend on the grouping or the thread
    // count. Per-job seeds are ignored by the grouping on purpose:
    // label-derived seeds always differ per job, and a seed only feeds
    // host-side IPC sampling (re-armed per job) and result-cache keys,
    // never simulated state.
    //
    // (prebuilt program, workload name, scale, maxInsts): prebuilt
    // programs group by object identity, registry workloads by (name,
    // scale) — exactly the ProgramCache key.
    using GroupKey = std::tuple<const assembler::Program *, std::string,
                                unsigned, uint64_t>;
    std::vector<std::vector<size_t>> groups;
    groups.reserve(jobs.size());
    std::map<GroupKey, size_t> groupIndex;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &j = jobs[i];
        GroupKey key{j.program.get(),
                     j.program ? std::string() : j.workload, j.scale,
                     j.maxInsts};
        const auto [it, inserted] =
            groupIndex.try_emplace(std::move(key), groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    std::vector<JobResult> results(jobs.size());
    std::atomic<size_t> nextGroup{0};

    // Progress state, shared by workers under one mutex; the callback
    // itself runs inside the lock so reports are serialized and the
    // done-counter never goes backwards from a caller's viewpoint.
    std::mutex progressMu;
    size_t done = 0;
    double hostTotal = 0.0, logIpcSum = 0.0;
    size_t ipcCount = 0;
    double simSecTotal = 0.0;
    uint64_t simInstTotal = 0;
    pipeline::PercentileAccumulator hostLatency;
    const auto sweepStart = std::chrono::steady_clock::now();

    const auto reportDone = [&](size_t i) {
        std::lock_guard<std::mutex> lock(progressMu);
        const JobResult &r = results[i];
        ++done;
        hostTotal += r.hostSeconds;
        if (const double ipc = r.sim.ipc(); ipc > 0.0) {
            logIpcSum += std::log(ipc);
            ++ipcCount;
        }
        if (r.simSeconds > 0.0) {
            simSecTotal += r.simSeconds;
            simInstTotal += r.sim.instructions;
        }
        hostLatency.add(r.hostSeconds);
        SweepProgress p;
        p.done = done;
        p.total = jobs.size();
        p.label = r.job.label;
        p.jobHostSeconds = r.hostSeconds;
        p.totalHostSeconds = hostTotal;
        p.elapsedSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - sweepStart)
                .count();
        p.etaSeconds = p.elapsedSeconds / double(done) *
                       double(jobs.size() - done);
        p.geomeanIpc =
            ipcCount ? std::exp(logIpcSum / double(ipcCount)) : 0.0;
        if (simSecTotal > 0.0)
            p.kips = double(simInstTotal) / simSecTotal / 1e3;
        p.hostP50 = hostLatency.percentile(50);
        p.hostP95 = hostLatency.percentile(95);
        p.hostP99 = hostLatency.percentile(99);
        opts_.onProgress(p);
    };

    const auto worker = [&] {
        // Workers claim whole groups: every job of a group runs on one
        // thread's warm session, back-to-back.
        for (size_t g; (g = nextGroup.fetch_add(1)) < groups.size();) {
            for (const size_t i : groups[g]) {
                results[i] = runOne(jobs[i]);
                if (opts_.onProgress)
                    reportDone(i);
            }
        }
    };

    unsigned n = opts_.run.effectiveThreads();
    if (n == 0)
        n = std::thread::hardware_concurrency();
    if (n < 1)
        n = 1;
    if (n > groups.size())
        n = unsigned(groups.size());
    if (n < 1)
        n = 1; // zero jobs still needs one pass for the empty result

    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    // Collection order is submission order, independent of scheduling.
    SweepResult out;
    for (auto &r : results)
        out.add(std::move(r));
    return out;
}

} // namespace conopt::sim
