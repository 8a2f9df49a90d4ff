#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "kernels/kernel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string isa_flags() {
  std::string out;
  const auto add = [&out](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse2"), "sse2");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#elif defined(__aarch64__)
  add(true, "neon");
#endif
  return out.empty() ? "none" : out;
}

long cache_kib(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? bytes / 1024 : 0;
}

}  // namespace

HostFingerprint probe_host() {
  HostFingerprint h;
  h.cpu_model = cpu_model();
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.isa = isa_flags();
  h.l1d_kib = cache_kib(_SC_LEVEL1_DCACHE_SIZE);
  h.l2_kib = cache_kib(_SC_LEVEL2_CACHE_SIZE);
  h.l3_kib = cache_kib(_SC_LEVEL3_CACHE_SIZE);
  h.kernel_backend = chambolle::kernels::backend_name(
      chambolle::kernels::active_backend());
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_json(const HostFingerprint& h) {
  return "{\"cpu_model\": " + json_string(h.cpu_model) +
         ", \"nproc\": " + std::to_string(h.nproc) +
         ", \"isa\": " + json_string(h.isa) +
         ", \"l1d_kib\": " + std::to_string(h.l1d_kib) +
         ", \"l2_kib\": " + std::to_string(h.l2_kib) +
         ", \"l3_kib\": " + std::to_string(h.l3_kib) +
         ", \"kernel_backend\": " + json_string(h.kernel_backend) +
         ", \"build_type\": " + json_string(h.build_type) + "}";
}

}  // namespace perfbench
