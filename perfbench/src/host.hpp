// host.hpp — the fingerprint every result carries, so two results from
// different machines are never compared as if they came from one.
#pragma once

#include <string>

namespace perfbench {

struct HostFingerprint {
  std::string cpu_model;
  int nproc = 0;            ///< CPUs this process may run on
  std::string isa;          ///< space-separated SIMD features the CPU has
  long l1d_kib = 0, l2_kib = 0, l3_kib = 0;
  std::string kernel_backend;  ///< kernels::active_backend()
  std::string build_type;
};

/// Probes the CPU through cpuid and sysconf; reads no files.
[[nodiscard]] HostFingerprint probe_host();

/// One-line JSON object with the fields above.
[[nodiscard]] std::string to_json(const HostFingerprint& host);

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
