// stmbench: one closed-loop end-to-end STM benchmark over the public
// stm::Engine facade, with per-layer attribution in a separate traced run.
//
//   stmbench --workload <disjoint-update|hashmap-mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON object on stdout: the labels of what ran (engine and
// time-base spec per series as the engines report them, threads, host,
// compiler), per-series details, the failures, and under "result" the
// metrics (end-to-end with --trace 0, per-layer with --trace 1). Exits 0
// when it measured, even if an oracle failed (the result says so); 2 on
// bad arguments; 1 when the run could not complete.

#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "series.hpp"
#include "workloads.hpp"

#ifndef STMBENCH_CXX_FLAGS
#define STMBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace stmbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// Peak resident set of this program, in MiB. VmHWM belongs to the
// current address space; getrusage's ru_maxrss survives execve and would
// report the launching process's footprint when that was larger.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[noreturn]] void usage(const std::string& msg) {
    std::cerr << "stmbench: " << msg
              << "\nusage: stmbench --workload "
                 "<disjoint-update|hashmap-mixed> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
        usage("bad value for " + flag + ": '" + v + "'");
    return x;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) usage("unexpected argument '" + a + "'");
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
            args[a.substr(2, eq - 2)] = a.substr(eq + 1);
        } else {
            if (i + 1 >= argc) usage("missing value for " + a);
            args[a.substr(2)] = argv[++i];
        }
    }
    for (const auto& kv : args)
        if (kv.first != "workload" && kv.first != "seed" &&
            kv.first != "seconds" && kv.first != "trace")
            usage("unknown flag --" + kv.first);
    if (!args.count("workload")) usage("--workload is required");

    Options opt;
    const std::string workload = args["workload"];
    opt.seed = args.count("seed") ? parse_u64("--seed", args["seed"]) : 1;
    opt.seconds = static_cast<double>(
        args.count("seconds") ? parse_u64("--seconds", args["seconds"]) : 10);
    const std::uint64_t trace =
        args.count("trace") ? parse_u64("--trace", args["trace"]) : 0;
    if (trace > 1) usage("--trace must be 0 or 1");
    opt.trace = trace == 1;
    opt.threads = hardware_threads();  // one worker per core
    if (opt.seconds < 1 || opt.seconds > 3600)
        usage("--seconds must be in [1, 3600]");

    WorkloadReport rep;
    try {
        if (workload == "disjoint-update")
            rep = run_disjoint_update(opt);
        else if (workload == "hashmap-mixed")
            rep = run_hashmap_mixed(opt);
        else
            usage("unknown workload '" + workload + "'");
    } catch (const std::exception& e) {
        std::cerr << "stmbench: " << workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> failures;
    double setup_total = 0;
    for (const SeriesReport& s : rep.series) {
        attempted += s.attempted;
        failed += s.failed;
        failures.insert(failures.end(), s.failures.begin(), s.failures.end());
        setup_total += median(s.setup_s);
        for (const Metric& m : s.metrics)
            metrics.push_back({s.engine + "." + m.name, m.value, m.unit});
    }
    if (!opt.trace) {
        metrics.push_back({"setup_s", setup_total, "s"});
        metrics.push_back({"rss_mib", peak_rss_mib(), "MiB"});
    }
    const bool correct = failed == 0 && failures.empty();

    std::ostringstream o;
    o << "{\"labels\":{\"workload\":" << json_str(workload)
      << ",\"seed\":" << opt.seed << ",\"seconds\":" << json_num(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"threads\":" << opt.threads
      << ",\"nproc\":" << hardware_threads()
      << ",\"cpu_model\":" << json_str(cpu_model())
      << ",\"compiler\":" << json_str(__VERSION__)
      << ",\"cxx_flags\":" << json_str(STMBENCH_CXX_FLAGS)
      << ",\"loop\":\"closed, one worker thread per core\"}";
    o << ",\"series\":[";
    for (std::size_t i = 0; i < rep.series.size(); ++i) {
        const SeriesReport& s = rep.series[i];
        o << (i ? "," : "") << "{\"engine\":" << json_str(s.engine)
          << ",\"engine_spec\":" << json_str(s.engine_spec)
          << ",\"timebase_spec\":" << json_str(s.timebase_spec)
          << ",\"latency_samples\":" << s.latency_samples
          << ",\"setup_builds\":" << s.setup_s.size()
          << ",\"setup_median_s\":" << json_num(median(s.setup_s))
          << ",\"attempted\":" << s.attempted << ",\"failed\":" << s.failed;
        if (opt.trace)
            o << ",\"attributed_share\":" << json_num(s.attributed_share);
        o << "}";
    }
    o << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        o << (i ? "," : "") << json_str(failures[i]);
    o << "],\"result\":{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        o << (i ? "," : "") << json_str(metrics[i].name) << ":{\"value\":"
          << json_num(metrics[i].value)
          << ",\"unit\":" << json_str(metrics[i].unit) << "}";
    o << "}}}";
    std::cout << o.str() << std::endl;
    return 0;
}
