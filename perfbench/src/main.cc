/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   hbench --workload <fullgraph|serve-small|serve-mix> --seed <n>
 *          --seconds <s> --trace <0|1> [--toy] [--out-dir <dir>]
 *
 * Runs one workload, checks its outputs against the oracles, prints a
 * result record (host fingerprint, configuration and every measured
 * field) and, as the last line, the result object:
 *   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * they are the per-layer ones of a traced run. Exits 1 on any oracle
 * mismatch or failed operation, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench_util.hh"
#include "util/thread_pool.hh"

using namespace perfbench;

namespace
{

/** Every per-layer metric; workloads leave a layer they do not use at
 *  0 (no time spent, nothing counted). */
const char *const kPerLayerZero[][2] = {
    {"graph.sample_us_p50", "us"},
    {"graph.sample_us_p99", "us"},
    {"graph.transfer_us_p50", "us"},
    {"graph.transfer_us_p99", "us"},
    {"graph.sampled_nodes", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_ms.hit", "ms"},
    {"serve.batch_ms.miss", "ms"},
    {"serve.batch_size", "count"},
    {"serve.plan_hit_ratio", "ratio"},
    {"serve.recompiles", "count"},
    {"serve.evictions", "count"},
    {"serve.resident_bytes", "B"},
    {"serve.coalesce_us", "us"},
    {"serve.plan_get_us", "us"},
    {"serve.execute_ms", "ms"},
    {"core.forward_ms.rgcn", "ms"},
    {"core.forward_ms.rgat", "ms"},
    {"core.forward_ms.hgt", "ms"},
    {"core.backward_ms.rgcn", "ms"},
    {"core.backward_ms.rgat", "ms"},
    {"core.backward_ms.hgt", "ms"},
    {"bench.gen_lag_ms_p99", "ms"},
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hbench: %s\nusage: hbench --workload "
                 "<fullgraph|serve-small|serve-mix> --seed <n> --seconds "
                 "<s> --trace <0|1> [--toy] [--out-dir <dir>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_val = i + 1 < argc;
        if (a == "--toy") {
            opt.toy = true;
        } else if (!has_val) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            opt.trace = std::strcmp(argv[++i], "1") == 0;
        } else if (a == "--out-dir") {
            opt.outDir = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.workload != "fullgraph" && opt.workload != "serve-small" &&
        opt.workload != "serve-mix")
        return usage("unknown workload");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");
    const bool jit_dir_empty = jitDirEmpty();
    const CpuTimes cpu0 = cpuTimes();

    Result r;
    bool crashed = false;
    try {
        r = opt.workload == "fullgraph" ? runFullgraph(opt) : runServe(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hbench: %s failed: %s\n", opt.workload.c_str(),
                     e.what());
        crashed = true;
        r.failed = r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    }

    const double error_rate =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 1.0;
    if (!opt.trace) {
        r.set("max_rss_mb", maxRssMb(), "MB");
    } else {
        // Set-up is timed in every run but printed only untraced.
        r.note("setup_s", jnum(r.metrics["setup_s"].value));
        r.metrics.erase("setup_s");
        for (const auto &[name, unit] : kPerLayerZero)
            if (!r.metrics.count(name))
                r.set(name, 0.0, unit);
        r.set("util.threads", hector::util::resolveThreads(), "count");
        const double self = std::atof(r.info["self_time_s"].c_str());
        const double wall = std::atof(r.info["traced_wall_s"].c_str());
        r.note("self_time_residual_pct",
               jnum(wall > 0 ? (self - wall) / wall * 100.0 : 0.0));
    }
    addFingerprint(r);
    r.note("jit_dir_empty_at_start", jit_dir_empty ? "true" : "false");
    // CPU time the hypervisor gave other guests during the run: the
    // main source of run-to-run drift on a shared virtual machine.
    const CpuTimes cpu1 = cpuTimes();
    r.note("host_steal_pct",
           jnum(cpu1.total > cpu0.total
                    ? 100.0 * (cpu1.steal - cpu0.steal) /
                          (cpu1.total - cpu0.total)
                    : 0.0));
    r.note("workload", jstr(opt.workload));
    r.note("seed", std::to_string(opt.seed));
    r.note("seconds", jnum(opt.seconds));
    r.note("trace", opt.trace ? "true" : "false");
    r.note("error_rate", jnum(error_rate));
    r.note("mismatches", std::to_string(r.mismatches));

    // The result record: fingerprint, configuration and diagnostics.
    std::string rec = "{\"record\":{";
    for (const auto &[k, v] : r.info) {
        if (rec.back() != '{')
            rec += ',';
        rec += jstr(k);
        rec += ':';
        rec += v;
    }
    rec += "}}";
    std::printf("%s\n", rec.c_str());

    const bool correct = !crashed && r.failed == 0;
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"metrics\":{";
    for (const auto &[name, m] : r.metrics) {
        if (out.back() != '{')
            out += ',';
        out += jstr(name);
        out += ":{\"value\":" + jnum(m.value);
        out += ",\"unit\":" + jstr(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
