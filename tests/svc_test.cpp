/**
 * @file
 * Tests for the simulation service layer (src/svc): the wire JSON,
 * the shared JobSpec parser, the content-addressed result cache, and
 * the pmsimd server's robustness contract end-to-end over a real
 * AF_UNIX socket — job isolation (a panicking or deadline-tripped job
 * returns a structured error frame with its own forensic dump while
 * concurrent jobs complete byte-identically to solo runs), bounded
 * admission (queue_full), drain rejection, and memoized replay.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mem/policy.hh"
#include "sim/context.hh"
#include "sim/sweep.hh"
#include "svc/cache.hh"
#include "svc/client.hh"
#include "svc/jobspec.hh"
#include "svc/json.hh"
#include "svc/server.hh"

namespace {

using namespace pm;

// ---- JSON. ----------------------------------------------------------------

TEST(SvcJson, ParsesAndDumpsRoundTrip)
{
    svc::json::Value v;
    std::string err;
    ASSERT_TRUE(svc::json::parse(
        R"({"b":true,"n":-3.5,"s":"a\nb","arr":[1,2],"o":{"k":"v"}})", v,
        err))
        << err;
    EXPECT_TRUE(v.isObj());
    EXPECT_TRUE(v.find("b")->boolean);
    EXPECT_EQ(v.num("n"), -3.5);
    EXPECT_EQ(v.str("s"), "a\nb");
    EXPECT_EQ(v.find("arr")->array.size(), 2u);
    // Dump is canonical (sorted keys, no whitespace) and re-parses.
    const std::string text = svc::json::dump(v);
    svc::json::Value v2;
    ASSERT_TRUE(svc::json::parse(text, v2, err)) << err;
    EXPECT_EQ(svc::json::dump(v2), text);
}

TEST(SvcJson, IntegersDumpWithoutExponent)
{
    svc::json::Value v = svc::json::Value::makeNum(1234567.0);
    EXPECT_EQ(svc::json::dump(v), "1234567");
}

TEST(SvcJson, EscapesRoundTrip)
{
    svc::json::Value v = svc::json::Value::makeStr("tab\there \"q\" \x01");
    svc::json::Value back;
    std::string err;
    ASSERT_TRUE(svc::json::parse(svc::json::dump(v), back, err)) << err;
    EXPECT_EQ(back.string, v.string);
}

TEST(SvcJson, SurrogatePairsDecodeToUtf8)
{
    svc::json::Value v;
    std::string err;
    ASSERT_TRUE(svc::json::parse(R"("😀")", v, err)) << err;
    EXPECT_EQ(v.string, "\xf0\x9f\x98\x80"); // U+1F600
    EXPECT_FALSE(svc::json::parse(R"("\ud83d")", v, err));
}

TEST(SvcJson, RejectsHostileInput)
{
    svc::json::Value v;
    std::string err;
    // A depth bomb must be rejected, not followed off the stack.
    std::string bomb(1000, '[');
    EXPECT_FALSE(svc::json::parse(bomb, v, err));
    EXPECT_NE(err.find("deep"), std::string::npos);
    EXPECT_FALSE(svc::json::parse("{} trailing", v, err));
    EXPECT_FALSE(svc::json::parse("{\"a\":}", v, err));
    EXPECT_FALSE(svc::json::parse("", v, err));
    // Errors carry a byte offset for the sender's benefit.
    EXPECT_FALSE(svc::json::parse("[1,2,xyz]", v, err));
    EXPECT_NE(err.find("at byte"), std::string::npos);
}

// ---- JobSpec parsing. -----------------------------------------------------

std::vector<std::string>
tok(std::initializer_list<const char *> ts)
{
    return {ts.begin(), ts.end()};
}

TEST(SvcJobSpec, ParsesDefaultsAndFlags)
{
    svc::JobSpec spec;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse({}, spec, err)) << err;
    EXPECT_EQ(spec.machine, "powermanna");
    EXPECT_EQ(spec.op, "latency");
    EXPECT_EQ(spec.numPoints(), 1u);

    ASSERT_TRUE(svc::JobSpec::parse(
                    tok({"--op", "soak", "--bytes=64", "--count", "16",
                         "--fault-ber", "1e-6", "--strict",
                         "--sweep", "bytes=8:64:*2", "--jobs", "4"}),
                    spec, err))
        << err;
    EXPECT_EQ(spec.op, "soak");
    EXPECT_TRUE(spec.strict);
    EXPECT_EQ(spec.numPoints(), 4u);
    EXPECT_EQ(spec.pointLabel(3), "bytes=64");
    EXPECT_EQ(spec.pointSpec(3).bytes, 64u);
    EXPECT_FALSE(spec.pointSpec(3).haveSweep);
}

TEST(SvcJobSpec, DeadlineUsFoldsIntoWatchdog)
{
    svc::JobSpec spec;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse(tok({"--deadline-us", "800"}), spec,
                                    err))
        << err;
    EXPECT_TRUE(spec.watchdog);
    EXPECT_DOUBLE_EQ(spec.watchdogUs, 100.0);
    EXPECT_DOUBLE_EQ(spec.watchdogDeadlineUs, 800.0);
    // ...and is one mechanism with --watchdog: both at once is an error.
    EXPECT_FALSE(svc::JobSpec::parse(
        tok({"--deadline-us", "800", "--watchdog", "50"}), spec, err));
}

TEST(SvcJobSpec, RejectsBadSpecsWithDiagnostics)
{
    svc::JobSpec spec;
    std::string err;
    const std::vector<std::vector<std::string>> bad = {
        tok({"--machine", "cray"}),
        tok({"--no-such-flag", "1"}),
        tok({"positional"}),
        tok({"--bytes", "64k"}),
        tok({"--src", "0", "--dst", "0"}),
        tok({"--src", "99"}),
        tok({"--fault-ber", "1.5"}),
        tok({"--op", "teleport"}),
        tok({"--strict"}), // strict needs --op soak
        tok({"--watchdog-deadline", "100"}), // needs --watchdog
        tok({"--kernel-threads", "4"}), // removed flag stays rejected
        tok({"--sweep", "bogus"}),
        tok({"--sweep", "warp=1:2:1"}),
        tok({"--sweep", "nodes=1:64:*2", "--src", "32"}),
        tok({"--fault-link-down", "5"}),
        tok({"--deadline-us", "0"}),
        // Times that convert to 0 ticks or overflow a Tick.
        tok({"--watchdog", "0.0000001", "--op", "latency"}),
        tok({"--deadline-us", "0.000004", "--op", "latency"}),
        tok({"--watchdog", "1e300", "--op", "latency"}),
        tok({"--watchdog", "1", "--watchdog-deadline", "0.0000001"}),
        tok({"--watchdog", "1e13"}), // default deadline overflows
    };
    for (const auto &tokens : bad) {
        err.clear();
        EXPECT_FALSE(svc::JobSpec::parse(tokens, spec, err))
            << "accepted: " << tokens.front();
        EXPECT_FALSE(err.empty()) << tokens.front();
    }
}

TEST(SvcJobSpec, CanonicalResolvesDefaults)
{
    // "--bytes 8" spelled out and no flag at all are the same job, so
    // they must hash identically — that is what makes the cache hit.
    svc::JobSpec a;
    svc::JobSpec b;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse({}, a, err));
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--bytes", "8", "--op", "latency", "--machine",
             "powermanna"}),
        b, err));
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // Scheduling/presentation knobs must not change the key...
    svc::JobSpec c;
    ASSERT_TRUE(svc::JobSpec::parse(tok({"--jobs", "7"}), c, err));
    EXPECT_EQ(a.cacheKey(), c.cacheKey());
    // ...but every semantic field must.
    svc::JobSpec d;
    ASSERT_TRUE(svc::JobSpec::parse(tok({"--bytes", "16"}), d, err));
    EXPECT_NE(a.cacheKey(), d.cacheKey());
}

TEST(SvcJobSpec, PolicyFlagsParseWithResolvedDefaults)
{
    svc::JobSpec spec;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse({}, spec, err)) << err;
    EXPECT_EQ(spec.coherence, mem::CoherenceKind::Mesi);
    EXPECT_EQ(spec.replacement, mem::ReplacementKind::Lru);
    EXPECT_EQ(spec.transport, mem::TransportKind::Snoop);
    // parse() resolves nodeCpus to the machine's processor count (the
    // PowerMANNA node is a 2-way SMP) so canonical() never renders 0.
    EXPECT_EQ(spec.nodeCpus, 2u);

    ASSERT_TRUE(svc::JobSpec::parse(
                    tok({"--coherence", "msi", "--replacement", "srrip",
                         "--transport", "dir", "--node-cpus", "4"}),
                    spec, err))
        << err;
    EXPECT_EQ(spec.coherence, mem::CoherenceKind::Msi);
    EXPECT_EQ(spec.replacement, mem::ReplacementKind::Srrip);
    EXPECT_EQ(spec.transport, mem::TransportKind::Directory);
    EXPECT_EQ(spec.nodeCpus, 4u);
}

TEST(SvcJobSpec, PolicyFlagsRejectBadValuesWithDiagnostics)
{
    svc::JobSpec spec;
    std::string err;
    const std::vector<std::vector<std::string>> bad = {
        tok({"--coherence", "moesi"}),
        tok({"--replacement", "random"}),
        tok({"--transport", "mesh"}),
        tok({"--node-cpus", "0"}),
        tok({"--node-cpus", "9"}), // beyond the paper's design study
        // A circuit-switched bus master holds the broadcast phase by
        // construction; the directory needs split transactions.
        tok({"--transport", "dir", "--machine", "pc180"}),
    };
    for (const auto &tokens : bad) {
        err.clear();
        EXPECT_FALSE(svc::JobSpec::parse(tokens, spec, err))
            << "accepted: " << tokens.front();
        EXPECT_FALSE(err.empty()) << tokens.front();
    }
    // The rejection names the offending machine, not just the flag.
    svc::JobSpec s2;
    err.clear();
    ASSERT_FALSE(svc::JobSpec::parse(
        tok({"--transport", "dir", "--machine", "pc180"}), s2, err));
    EXPECT_NE(err.find("pc180"), std::string::npos) << err;
}

TEST(SvcJobSpec, PolicyFieldsKeyTheCache)
{
    svc::JobSpec dflt;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse({}, dflt, err));

    // Spelling out every default must hash identically to no flags.
    svc::JobSpec explicitDflt;
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--coherence", "mesi", "--replacement", "lru",
             "--transport", "snoop", "--node-cpus", "2"}),
        explicitDflt, err));
    EXPECT_EQ(dflt.canonical(), explicitDflt.canonical());
    EXPECT_EQ(dflt.cacheKey(), explicitDflt.cacheKey());

    // Each policy axis is semantic: changing it must change the key.
    for (const auto &flags :
         {tok({"--coherence", "msi"}), tok({"--replacement", "srrip"}),
          tok({"--transport", "dir"}), tok({"--node-cpus", "4"})}) {
        svc::JobSpec other;
        ASSERT_TRUE(svc::JobSpec::parse(flags, other, err)) << err;
        EXPECT_NE(dflt.cacheKey(), other.cacheKey()) << flags.front();
    }
}

// ---- Result cache. --------------------------------------------------------

TEST(SvcCache, HitRequiresByteEqualCanonical)
{
    svc::ResultCache cache;
    cache.insert(42, "spec-A", "row-A");
    std::string row;
    EXPECT_TRUE(cache.lookup(42, "spec-A", row));
    EXPECT_EQ(row, "row-A");
    // Same key, different canonical bytes: a collision, not a hit —
    // the cache must never return the wrong job's row.
    EXPECT_FALSE(cache.lookup(42, "spec-B", row));
    const auto s = cache.snapshot();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.collisions, 1u);
}

TEST(SvcCache, FlushLoadRoundTripsBinarySafePayloads)
{
    const std::string path =
        testing::TempDir() + "svc_cache_test.pmcache";
    std::remove(path.c_str());
    {
        svc::ResultCache cache;
        cache.insert(1, "canon\nwith\nnewlines", "row\nwith\nnewlines");
        cache.insert(2, "c2", "entry 2 looks\nlike a record\n");
        std::string err;
        ASSERT_TRUE(cache.flush(path, err)) << err;
    }
    svc::ResultCache loaded;
    std::string err;
    ASSERT_TRUE(loaded.load(path, err)) << err;
    EXPECT_EQ(loaded.snapshot().entries, 2u);
    std::string row;
    ASSERT_TRUE(loaded.lookup(1, "canon\nwith\nnewlines", row));
    EXPECT_EQ(row, "row\nwith\nnewlines");

    // A missing index is a clean empty cache; a corrupt one is an
    // error, never silently-partial state.
    svc::ResultCache fresh;
    EXPECT_TRUE(fresh.load(path + ".does-not-exist", err));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("pmcache 1\nentry zzz not-a-length\n", f);
    std::fclose(f);
    EXPECT_FALSE(fresh.load(path, err));
    EXPECT_EQ(fresh.snapshot().entries, 0u);
    std::remove(path.c_str());
}

// ---- runPoint determinism. ------------------------------------------------

TEST(SvcRunPoint, ByteIdenticalAcrossThreads)
{
    svc::JobSpec spec;
    std::string err;
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--op", "latency", "--bytes", "8", "--stats"}), spec, err));
    const std::string solo = svc::runPoint(spec);
    ASSERT_FALSE(solo.empty());
    std::vector<std::string> rows(3);
    std::vector<std::thread> threads;
    for (auto &out : rows)
        threads.emplace_back(
            [&spec, &out] { out = svc::runPoint(spec); });
    for (auto &t : threads)
        t.join();
    for (const auto &row : rows)
        EXPECT_EQ(row, solo);
}

// ---- Sweep isolation: panics and deadline trips stay per-point. -----------

TEST(SvcSweepIsolation, PanickingAndWedgedPointsIsolateFromSurvivors)
{
    // Four points on four workers: two healthy measurements, two jobs
    // wedged behind a dead link with different virtual-time deadlines.
    // The wedged points must each trip *their own* watchdog (distinct
    // trip ticks prove the traps did not cross) and carry their own
    // forensic dump, while the survivors' rows are byte-identical to
    // solo runs.
    std::string err;
    svc::JobSpec healthy8;
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--op", "latency", "--bytes", "8"}), healthy8, err));
    svc::JobSpec healthy64;
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--op", "unibw", "--bytes", "65536", "--count", "16"}),
        healthy64, err));
    svc::JobSpec wedge500;
    ASSERT_TRUE(svc::JobSpec::parse(
        tok({"--op", "soak", "--bytes", "256", "--count", "8",
             "--fault-link-down", "0:1000000000", "--deadline-us",
             "500"}),
        wedge500, err));
    svc::JobSpec wedge300 = wedge500;
    wedge300.watchdogUs = 300.0 / 8.0;
    wedge300.watchdogDeadlineUs = 300.0;

    const std::string solo8 = svc::runPoint(healthy8);
    const std::string solo64 = svc::runPoint(healthy64);

    const std::vector<const svc::JobSpec *> specs{
        &healthy8, &wedge500, &healthy64, &wedge300};
    sim::sweep::Options opt;
    opt.jobs = 4;
    const auto report = sim::sweep::map(
        specs,
        [](const svc::JobSpec *spec, const sim::sweep::Point &) {
            return svc::runPoint(*spec);
        },
        opt);

    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].index, 1u);
    EXPECT_EQ(report.failures[1].index, 3u);
    EXPECT_NE(report.failures[0].message.find("watchdog tripped"),
              std::string::npos);
    EXPECT_NE(report.failures[0].message.find("tick 500000000"),
              std::string::npos)
        << report.failures[0].message;
    EXPECT_NE(report.failures[1].message.find("tick 300000000"),
              std::string::npos)
        << report.failures[1].message;
    for (const auto &f : report.failures)
        EXPECT_NE(f.dump.find("=== health dump"), std::string::npos);

    EXPECT_EQ(report.results[0], solo8);
    EXPECT_EQ(report.results[2], solo64);
    EXPECT_EQ(report.completedCount(), 2u);
}

// ---- The server, end to end over a real socket. ---------------------------

/** A running pmsimd engine on a TempDir socket. */
class ServerFixture
{
  public:
    explicit ServerFixture(const std::string &name,
                           unsigned queueDepth = 64,
                           unsigned workers = 3)
    {
        _opt.socketPath = testing::TempDir() + name + ".sock";
        _opt.cacheDir = testing::TempDir();
        _indexPath = _opt.cacheDir + "/index.pmcache";
        std::remove(_indexPath.c_str());
        _opt.workers = workers;
        _opt.queueDepth = queueDepth;
        _server = std::make_unique<svc::Server>(_opt);
        std::string err;
        if (!_server->start(err))
            ADD_FAILURE() << err;
        _runner = std::thread([this] { _served = _server->run(_stop); });
    }

    ~ServerFixture()
    {
        stop();
        std::remove(_indexPath.c_str());
    }

    void
    stop()
    {
        if (_runner.joinable()) {
            _stop.store(true);
            _runner.join();
        }
    }

    svc::Server &server() { return *_server; }
    const std::string &socketPath() const { return _opt.socketPath; }
    std::uint64_t served() const { return _served; }

  private:
    svc::ServerOptions _opt;
    std::string _indexPath;
    std::unique_ptr<svc::Server> _server;
    std::atomic<bool> _stop{false};
    std::thread _runner;
    std::uint64_t _served = 0;
};

/** Everything one job streamed back. */
struct JobResult
{
    bool accepted = false;
    std::string rejectReason;
    std::map<std::size_t, std::string> rows; //!< point -> report text
    std::map<std::size_t, bool> cached;
    std::map<std::size_t, std::string> errors; //!< point -> message
    std::map<std::size_t, std::string> dumps;
    std::size_t failed = 0;
    std::size_t cacheHits = 0;
    std::string err;
};

JobResult
runJob(const std::string &socketPath, const std::string &id,
       const std::vector<std::string> &argv)
{
    JobResult res;
    svc::Client client;
    if (!client.connect(socketPath, res.err))
        return res;
    std::string detail;
    switch (client.submitJob(id, argv, /*retries=*/8, /*backoffMs=*/5,
                             res.rejectReason, detail, res.err)) {
    case svc::Client::Submit::Accepted:
        res.accepted = true;
        break;
    case svc::Client::Submit::Rejected:
        return res;
    case svc::Client::Submit::Error:
        return res;
    }
    for (;;) {
        svc::json::Value frame;
        if (!client.recv(frame, res.err))
            return res;
        const std::string type = frame.str("type");
        const auto point = static_cast<std::size_t>(frame.num("point"));
        if (type == "row") {
            res.rows[point] = frame.str("data");
            res.cached[point] = frame.find("cached")->boolean;
        } else if (type == "error") {
            res.errors[point] = frame.str("message");
            res.dumps[point] = frame.str("dump");
        } else if (type == "done") {
            res.failed = static_cast<std::size_t>(frame.num("failed"));
            res.cacheHits =
                static_cast<std::size_t>(frame.num("cache_hits"));
            return res;
        } else {
            res.err = "unexpected frame " + type;
            return res;
        }
    }
}

TEST(SvcServer, IsolatesFailingJobsAndMemoizesReplay)
{
    ServerFixture fx("svc_e2e");

    const std::vector<std::string> healthyArgv{"--op", "latency",
                                               "--bytes", "8"};
    const std::vector<std::string> sweepArgv{"--op", "latency",
                                             "--sweep", "bytes=8:64:*2"};
    const std::vector<std::string> wedgeArgv{
        "--op",   "soak",  "--bytes",           "256",
        "--count", "8",    "--fault-link-down", "0:1000000000",
        "--deadline-us", "500"};
    const std::vector<std::string> panicArgv{
        "--op", "soak", "--count", "1", "--fault-drop", "1.0",
        "--strict"};

    // Solo references, computed in-process: the determinism contract
    // says the server's concurrent workers must reproduce these bytes.
    std::string err;
    svc::JobSpec healthySpec;
    ASSERT_TRUE(svc::JobSpec::parse(healthyArgv, healthySpec, err));
    const std::string soloHealthy = svc::runPoint(healthySpec);
    svc::JobSpec sweepSpec;
    ASSERT_TRUE(svc::JobSpec::parse(sweepArgv, sweepSpec, err));
    std::vector<std::string> soloSweep;
    for (std::size_t i = 0; i < sweepSpec.numPoints(); ++i)
        soloSweep.push_back(svc::runPoint(sweepSpec.pointSpec(i)));

    // All four jobs in flight at once on three workers: two failing
    // (one deadline trip, one strict-soak panic), two healthy.
    JobResult healthy;
    JobResult sweep;
    JobResult wedge;
    JobResult panic;
    std::thread t1([&] {
        healthy = runJob(fx.socketPath(), "healthy", healthyArgv);
    });
    std::thread t2(
        [&] { sweep = runJob(fx.socketPath(), "sweep", sweepArgv); });
    std::thread t3(
        [&] { wedge = runJob(fx.socketPath(), "wedge", wedgeArgv); });
    std::thread t4(
        [&] { panic = runJob(fx.socketPath(), "panic", panicArgv); });
    t1.join();
    t2.join();
    t3.join();
    t4.join();

    ASSERT_TRUE(healthy.accepted) << healthy.err;
    EXPECT_EQ(healthy.failed, 0u);
    ASSERT_EQ(healthy.rows.size(), 1u);
    EXPECT_EQ(healthy.rows[0], soloHealthy);

    ASSERT_TRUE(sweep.accepted) << sweep.err;
    EXPECT_EQ(sweep.failed, 0u);
    ASSERT_EQ(sweep.rows.size(), soloSweep.size());
    for (std::size_t i = 0; i < soloSweep.size(); ++i)
        EXPECT_EQ(sweep.rows[i], soloSweep[i]) << "point " << i;

    // The failing jobs each return a structured error frame carrying
    // their own diagnosis and forensic dump — and nothing else died.
    ASSERT_TRUE(wedge.accepted) << wedge.err;
    EXPECT_EQ(wedge.failed, 1u);
    ASSERT_EQ(wedge.errors.size(), 1u);
    EXPECT_NE(wedge.errors[0].find("watchdog tripped"),
              std::string::npos)
        << wedge.errors[0];
    EXPECT_NE(wedge.dumps[0].find("=== health dump"), std::string::npos);

    ASSERT_TRUE(panic.accepted) << panic.err;
    EXPECT_EQ(panic.failed, 1u);
    ASSERT_EQ(panic.errors.size(), 1u);
    EXPECT_NE(panic.errors[0].find("strict soak failed"),
              std::string::npos)
        << panic.errors[0];
    EXPECT_NE(panic.dumps[0].find("=== health dump"), std::string::npos);

    // The server survived both failures and keeps serving...
    JobResult replay =
        runJob(fx.socketPath(), "replay", healthyArgv);
    ASSERT_TRUE(replay.accepted) << replay.err;
    EXPECT_EQ(replay.failed, 0u);
    // ...and the replay is a verified cache hit with identical bytes.
    EXPECT_EQ(replay.rows[0], soloHealthy);
    EXPECT_TRUE(replay.cached[0]);
    EXPECT_EQ(replay.cacheHits, 1u);

    // Errors are never cached: a second strict panic re-runs.
    JobResult panic2 =
        runJob(fx.socketPath(), "panic2", panicArgv);
    ASSERT_TRUE(panic2.accepted) << panic2.err;
    EXPECT_EQ(panic2.failed, 1u);
    EXPECT_EQ(panic2.cacheHits, 0u);
    EXPECT_EQ(panic2.errors[0], panic.errors[0]);

    fx.stop();
    EXPECT_EQ(fx.served(), 6u);
}

TEST(SvcServer, BoundedAdmissionAndDrainReject)
{
    ServerFixture fx("svc_admission", /*queueDepth=*/2, /*workers=*/1);

    // A 4-point sweep can never fit a 2-point queue: explicit
    // queue_full, not an unbounded backlog (retries exhaust).
    svc::Client client;
    std::string err;
    ASSERT_TRUE(client.connect(fx.socketPath(), err)) << err;
    ASSERT_TRUE(client.ping(err)) << err;
    std::string reason;
    std::string detail;
    EXPECT_EQ(client.submitJob("big", {"--sweep", "bytes=8:64:*2"},
                               /*retries=*/2, /*backoffMs=*/1, reason,
                               detail, err),
              svc::Client::Submit::Rejected);
    EXPECT_EQ(reason, "queue_full");

    // Draining: new submits are rejected while accepted work finishes.
    fx.server().requestDrain();
    EXPECT_EQ(client.submitJob("late", {"--bytes", "8"}, /*retries=*/0,
                               /*backoffMs=*/1, reason, detail, err),
              svc::Client::Submit::Rejected);
    EXPECT_EQ(reason, "draining");

    // Malformed jobs are rejected with a diagnostic, not a dead server.
    EXPECT_EQ(client.submitJob("bad", {"--machine", "cray"},
                               /*retries=*/0, /*backoffMs=*/1, reason,
                               detail, err),
              svc::Client::Submit::Rejected);
    EXPECT_EQ(reason, "bad_spec");
    EXPECT_NE(detail.find("cray"), std::string::npos);
    EXPECT_TRUE(client.ping(err)) << err;
}

} // namespace
