#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdlib>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(sep, begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

int64_t ProcessCpuNs() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

int64_t ResidentKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return 0;
}

}  // namespace perfbench
