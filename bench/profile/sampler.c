/* A user-space-only sampling profiler for one process of your own.

   Opens a perf_event_open task-clock sampler, user mode only, on every
   thread of a running process (rescanning /proc/<pid>/task, so threads
   started later are sampled too), drains the sample rings for a fixed
   time, and prints what symbolize.py needs:

     maps <line of /proc/<pid>/maps>      one per executable mapping
     ip <hex address> <samples>           one per distinct user IP
     total <samples> lost <records lost> threads <threads sampled>

   Task-clock samples count CPU time: a thread that is blocked takes no
   samples, so the shares are shares of the process's own CPU time.
   It needs perf_event_paranoid <= 2 (user-only events on processes of
   the same user) and changes no system setting.

   Build and run (Linux):
     cc -O2 -Wall -o _build/sampler bench/profile/sampler.c
     _build/sampler <pid> <seconds> [hz] > _build/samples.txt
     python3 bench/profile/symbolize.py _build/samples.txt */

#define _GNU_SOURCE
#include <dirent.h>
#include <errno.h>
#include <linux/perf_event.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#define MAX_THREADS 64
#define RING_PAGES 64 /* data pages per thread, a power of two */
#define TABLE_BITS 16 /* distinct IPs kept: 2^16 */

struct ring {
  int tid;
  int fd;
  struct perf_event_mmap_page *meta;
  size_t size;
};

static struct ring rings[MAX_THREADS];
static int nrings;
static long page_size;

static uint64_t ips[1 << TABLE_BITS];
static uint64_t counts[1 << TABLE_BITS];
static uint64_t total, lost, dropped;

static void count_ip(uint64_t ip)
{
  uint64_t mask = (1u << TABLE_BITS) - 1;
  uint64_t h = (ip * 0x9e3779b97f4a7c15ull) >> (64 - TABLE_BITS);
  for (uint64_t n = 0; n <= mask; n++, h = (h + 1) & mask) {
    if (counts[h] == 0) ips[h] = ip;
    if (ips[h] == ip) {
      counts[h]++;
      total++;
      return;
    }
  }
  dropped++;
}

static int have_tid(int tid)
{
  for (int i = 0; i < nrings; i++)
    if (rings[i].tid == tid) return 1;
  return 0;
}

static void open_thread(int tid, uint64_t period_ns)
{
  struct perf_event_attr attr;
  memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.sample_period = period_ns;
  attr.sample_type = PERF_SAMPLE_IP;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.exclude_idle = 1;
  int fd = (int)syscall(SYS_perf_event_open, &attr, tid, -1, -1, 0);
  if (fd < 0) {
    fprintf(stderr, "sampler: perf_event_open(tid %d): %s\n", tid, strerror(errno));
    return;
  }
  size_t size = (size_t)(RING_PAGES + 1) * page_size;
  void *p = mmap(NULL, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) {
    fprintf(stderr, "sampler: mmap(tid %d): %s\n", tid, strerror(errno));
    close(fd);
    return;
  }
  rings[nrings++] = (struct ring){ tid, fd, p, size };
}

/* Open a sampler on every thread of [pid] not sampled yet. */
static int scan_threads(int pid, uint64_t period_ns)
{
  char path[64];
  snprintf(path, sizeof path, "/proc/%d/task", pid);
  DIR *d = opendir(path);
  if (!d) return -1;
  struct dirent *e;
  while ((e = readdir(d)) && nrings < MAX_THREADS) {
    int tid = atoi(e->d_name);
    if (tid > 0 && !have_tid(tid)) open_thread(tid, period_ns);
  }
  closedir(d);
  return 0;
}

static void drain(struct ring *r)
{
  struct perf_event_mmap_page *m = r->meta;
  unsigned char *data = (unsigned char *)m + page_size;
  uint64_t data_size = (uint64_t)RING_PAGES * page_size;
  uint64_t head = __atomic_load_n(&m->data_head, __ATOMIC_ACQUIRE);
  uint64_t tail = m->data_tail;
  while (tail < head) {
    struct perf_event_header h;
    unsigned char buf[64];
    for (size_t i = 0; i < sizeof h; i++) ((unsigned char *)&h)[i] = data[(tail + i) % data_size];
    if (h.size < sizeof h) break;
    size_t body = h.size - sizeof h;
    if (body > sizeof buf) body = sizeof buf;
    for (size_t i = 0; i < body; i++) buf[i] = data[(tail + sizeof h + i) % data_size];
    if (h.type == PERF_RECORD_SAMPLE && body >= 8) {
      uint64_t ip;
      memcpy(&ip, buf, 8);
      count_ip(ip);
    } else if (h.type == PERF_RECORD_LOST && body >= 16) {
      uint64_t n;
      memcpy(&n, buf + 8, 8);
      lost += n;
    }
    tail += h.size;
  }
  __atomic_store_n(&m->data_tail, tail, __ATOMIC_RELEASE);
}

static double now_s(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

static void print_maps(int pid)
{
  char path[64], line[4096];
  snprintf(path, sizeof path, "/proc/%d/maps", pid);
  FILE *f = fopen(path, "r");
  if (!f) return;
  while (fgets(line, sizeof line, f)) {
    char perms[8];
    if (sscanf(line, "%*s %7s", perms) == 1 && perms[2] == 'x') printf("maps %s", line);
  }
  fclose(f);
}

int main(int argc, char **argv)
{
  if (argc < 3) {
    fprintf(stderr, "usage: %s <pid> <seconds> [hz (default 4000)]\n", argv[0]);
    return 2;
  }
  int pid = atoi(argv[1]);
  double seconds = atof(argv[2]);
  long hz = argc > 3 ? atol(argv[3]) : 4000;
  if (pid <= 0 || seconds <= 0 || hz <= 0 || hz > 100000) {
    fprintf(stderr, "sampler: bad arguments\n");
    return 2;
  }
  uint64_t period_ns = 1000000000ull / (uint64_t)hz;
  page_size = sysconf(_SC_PAGESIZE);
  if (scan_threads(pid, period_ns) < 0 || nrings == 0) {
    fprintf(stderr, "sampler: cannot sample pid %d\n", pid);
    return 1;
  }
  /* The maps are read while the process lives: symbolize.py needs them. */
  print_maps(pid);
  double end = now_s() + seconds, next_scan = now_s() + 0.1;
  while (now_s() < end) {
    struct timespec pause = { 0, 5 * 1000 * 1000 };
    nanosleep(&pause, NULL);
    for (int i = 0; i < nrings; i++) drain(&rings[i]);
    if (now_s() >= next_scan) {
      if (scan_threads(pid, period_ns) < 0) break; /* the process exited */
      next_scan = now_s() + 0.1;
    }
  }
  for (int i = 0; i < nrings; i++) {
    drain(&rings[i]);
    ioctl(rings[i].fd, PERF_EVENT_IOC_DISABLE, 0);
    munmap(rings[i].meta, rings[i].size);
    close(rings[i].fd);
  }
  for (uint64_t h = 0; h < (1u << TABLE_BITS); h++)
    if (counts[h]) printf("ip %llx %llu\n", (unsigned long long)ips[h], (unsigned long long)counts[h]);
  printf("total %llu lost %llu threads %d\n", (unsigned long long)total,
         (unsigned long long)(lost + dropped), nrings);
  return 0;
}
