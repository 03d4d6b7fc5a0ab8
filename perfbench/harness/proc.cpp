#include "proc.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

/// Value in kB of a "Key:   123 kB" line of /proc/<pid>/status; -1 if absent.
double status_kb(pid_t pid, const char* key) {
  std::ifstream in(proc_dir(pid) + "/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len && line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr);
    }
  }
  return -1.0;
}

/// CPU seconds of one task directory: schedstat's first field (ns on CPU),
/// or utime + stime from stat when schedstat is unavailable.
double task_cpu_s(const std::string& task_dir) {
  {
    std::ifstream in(task_dir + "/schedstat");
    unsigned long long ns = 0;
    if (in >> ns) return static_cast<double>(ns) * 1e-9;
  }
  std::ifstream in(task_dir + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');  // comm may contain spaces
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;  // state .. cmajflt (fields 3-13)
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

double peak_rss_mib(pid_t pid) { return status_kb(pid, "VmHWM") / 1024.0; }

double rss_bytes(pid_t pid) { return status_kb(pid, "VmRSS") * 1024.0; }

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

std::map<int, double> thread_cpu_s(pid_t pid) {
  std::map<int, double> out;
  const std::string tasks = proc_dir(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out[std::atoi(e->d_name)] = task_cpu_s(tasks + "/" + e->d_name);
  }
  ::closedir(dir);
  return out;
}

double process_cpu_s(pid_t pid) {
  double total = 0.0;
  for (const auto& [tid, cpu] : thread_cpu_s(pid)) total += cpu;
  return total;
}

}  // namespace perfbench
