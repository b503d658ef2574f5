#include "bench_util.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "common/status.h"
#include "common/string_util.h"
#include "common/trace_export.h"

namespace prany {
namespace bench {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + ((*values)[hi] - (*values)[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

void MetricList::Add(const std::string& name, const std::string& unit,
                     double value) {
  PRANY_CHECK_MSG(Find(name) == nullptr, "duplicate metric " + name);
  items_.push_back(Metric{name, unit, value});
}

const Metric* MetricList::Find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  PRANY_CHECK(ec == std::errc());
  return std::string(buf, end);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

namespace {

double TimevalMicros(const timeval& tv) {
  return 1e6 * static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec);
}

CpuTimes Usage(int who) {
  struct rusage ru;
  PRANY_CHECK(getrusage(who, &ru) == 0);
  return CpuTimes{TimevalMicros(ru.ru_utime), TimevalMicros(ru.ru_stime)};
}

Status WriteSmallFile(const char* path, const std::string& text) {
  int fd = ::open(path, O_WRONLY);
  if (fd < 0) return Status::Unavailable(StrFormat("open %s: %s", path,
                                                   std::strerror(errno)));
  ssize_t n = ::write(fd, text.data(), text.size());
  int err = errno;
  ::close(fd);
  if (n != static_cast<ssize_t>(text.size())) {
    return Status::Unavailable(
        StrFormat("write %s: %s", path, std::strerror(err)));
  }
  return Status::OK();
}

}  // namespace

CpuTimes ProcessCpu() { return Usage(RUSAGE_SELF); }
CpuTimes ThreadCpu() { return Usage(RUSAGE_THREAD); }

int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

std::string FilesystemType(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    default:
      return StrFormat("0x%llx", static_cast<unsigned long long>(fs.f_type));
  }
}

bool IsTmpfs(const std::string& dir) {
  const std::string type = FilesystemType(dir);
  return type == "tmpfs" || type == "ramfs";
}

Status MountPrivateTmpfs(const std::string& dir) {
  if (unshare(CLONE_NEWNS) != 0) {
    const int plain_errno = errno;
    const uid_t uid = getuid();
    const gid_t gid = getgid();
    if (unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) {
      return Status::Unavailable(StrFormat(
          "cannot create a mount namespace (%s; user namespace: %s)",
          std::strerror(plain_errno), std::strerror(errno)));
    }
    // Map this user to root inside the namespace so mount(2) is allowed.
    // setgroups is absent on kernels older than 3.19; the maps still work.
    (void)WriteSmallFile("/proc/self/setgroups", "deny");
    Status mapped = WriteSmallFile("/proc/self/uid_map",
                                   StrFormat("0 %u 1", uid));
    if (mapped.ok()) {
      mapped = WriteSmallFile("/proc/self/gid_map", StrFormat("0 %u 1", gid));
    }
    if (!mapped.ok()) return mapped;
  }
  // Keep the tmpfs out of the parent namespace.
  if (mount("none", "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return Status::Unavailable(
        StrFormat("make mounts private: %s", std::strerror(errno)));
  }
  if (mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
            "size=4g,mode=0700") != 0) {
    return Status::Unavailable(
        StrFormat("mount tmpfs on %s: %s", dir.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

HostInfo CollectHostInfo(const std::string& disk_dir) {
  HostInfo host;
  host.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  struct utsname uts;
  if (uname(&uts) == 0) host.kernel = uts.release;

  const std::string probe = disk_dir + "/fdatasync.probe";
  int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                  0644);
  PRANY_CHECK_MSG(fd >= 0, StrFormat("open %s: %s", probe.c_str(),
                                     std::strerror(errno)));
  char record[64];
  std::memset(record, 'r', sizeof record);
  std::vector<double> sync_us;
  sync_us.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    PRANY_CHECK(::write(fd, record, sizeof record) ==
                static_cast<ssize_t>(sizeof record));
    const Clock::time_point start = Clock::now();
    PRANY_CHECK(::fdatasync(fd) == 0);
    sync_us.push_back(MicrosBetween(start, Clock::now()));
  }
  ::close(fd);
  ::unlink(probe.c_str());
  host.disk_fdatasync_us_p50 = Quantile(&sync_us, 0.5);
  host.disk_fdatasync_us_p99 = Quantile(&sync_us, 0.99);
  return host;
}

}  // namespace bench
}  // namespace prany
