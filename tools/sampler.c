/* SIGPROF stack sampler, loaded with LD_PRELOAD.
 *
 * x86-64 Linux with glibc only (it reads REG_RIP from the signal
 * context).  Build (not part of the CMake build):
 *
 *     gcc -O2 -g -fPIC -shared tools/sampler.c -o sampler.so -ldl
 *
 * Run the program with it, then symbolize with tools/profile.py:
 *
 *     DPN_SAMPLER_OUT=/tmp/prof LD_PRELOAD=$PWD/sampler.so \
 *         .bench_build/perfbench/dpn_perfbench --workload sieve_local \
 *         --seed 3 --seconds 6 --trace 0 --size full --corrupt 0
 *     python3 tools/profile.py /tmp/prof.*
 *
 * Every 1 ms of process CPU (ITIMER_PROF) the handler records the
 * interrupted stack with backtrace() into a preallocated buffer.  Each
 * process writes its samples, followed by a copy of /proc/self/maps, to
 * $DPN_SAMPLER_OUT.<pid> when it exits.  Forked children (perfbench runs
 * each round in one) start with an empty buffer and a re-armed timer,
 * since interval timers are not inherited across fork().  Children that
 * end with _Exit() run no atexit hook, so _Exit and _exit are interposed
 * to write the samples first.
 *
 * Known hazard: backtrace() unwinds through whatever the stack holds.
 * A sample that lands inside an M:N fiber switch, where the stack
 * pointer and the frames above it belong to different stacks, can crash
 * the unwinder.  Keep only profiles whose rounds all finished correctly.
 * Run the benchmark binary directly rather than through run.py, so the
 * preload stays out of python and cmake.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxFrames = 48, kMaxSamples = 1 << 17, kPeriodUs = 1000 };

struct sample {
  int depth;
  void* frames[kMaxFrames];
};

static struct sample* samples;
static atomic_int next_sample;
static atomic_int written;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int i = atomic_fetch_add_explicit(&next_sample, 1,
                                          memory_order_relaxed);
  if (samples == NULL || i >= kMaxSamples) return;
  void* raw[kMaxFrames + 4];
  const int n = backtrace(raw, kMaxFrames + 4);
  /* The first frames are this handler and the signal trampoline; the
   * interrupted pc starts the real stack. */
  const void* pc =
      (const void*)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
  int start = n < 2 ? n : 2;
  for (int k = 0; k < n; ++k) {
    if (raw[k] == pc) {
      start = k;
      break;
    }
  }
  struct sample* s = &samples[i];
  s->depth = 0;
  s->frames[s->depth++] = (void*)pc;
  for (int k = start + 1; k < n && s->depth < kMaxFrames; ++k) {
    s->frames[s->depth++] = raw[k];
  }
}

static void arm(void) {
  struct itimerval period = {{0, kPeriodUs}, {0, kPeriodUs}};
  setitimer(ITIMER_PROF, &period, NULL);
}

static void disarm(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
}

static void put(int fd, const char* text, size_t len) {
  while (len > 0) {
    const ssize_t w = write(fd, text, len);
    if (w <= 0) return;
    text += w;
    len -= (size_t)w;
  }
}

/* Format: "sample <pc> <return address>..." lines, then "maps" and a
 * copy of /proc/self/maps. */
static void write_samples(void) {
  if (atomic_exchange(&written, 1) != 0 || samples == NULL) return;
  disarm();
  const char* prefix = getenv("DPN_SAMPLER_OUT");
  if (prefix == NULL) prefix = "sampler";
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", prefix, (int)getpid());
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  int count = atomic_load(&next_sample);
  if (count > kMaxSamples) count = kMaxSamples;
  char line[kMaxFrames * 20 + 16];
  for (int i = 0; i < count; ++i) {
    size_t len = (size_t)snprintf(line, sizeof line, "sample");
    for (int k = 0; k < samples[i].depth; ++k) {
      len += (size_t)snprintf(line + len, sizeof line - len, " %p",
                              samples[i].frames[k]);
    }
    line[len++] = '\n';
    put(fd, line, len);
  }
  put(fd, "maps\n", 5);
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[8192];
    ssize_t r;
    while ((r = read(maps, buf, sizeof buf)) > 0) put(fd, buf, (size_t)r);
    close(maps);
  }
  close(fd);
}

static void in_child(void) {
  atomic_store(&next_sample, 0);
  atomic_store(&written, 0);
  arm();
}

void _Exit(int status) {
  write_samples();
  void (*real)(int) = (void (*)(int))dlsym(RTLD_NEXT, "_Exit");
  real(status);
  abort();
}

void _exit(int status) {
  write_samples();
  void (*real)(int) = (void (*)(int))dlsym(RTLD_NEXT, "_exit");
  real(status);
  abort();
}

__attribute__((constructor)) static void start(void) {
  samples = calloc(kMaxSamples, sizeof *samples);
  if (samples == NULL) return;
  void* warm[4];
  backtrace(warm, 4); /* loads libgcc's unwinder outside the handler */
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  pthread_atfork(NULL, NULL, in_child);
  atexit(write_samples);
  arm();
}
