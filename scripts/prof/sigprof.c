/* sigprof: a sampling profiler in one LD_PRELOAD object.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=run.samples LD_PRELOAD=$PWD/sigprof.so ./program args...
 *
 * The constructor arms ITIMER_PROF at 1 kHz of process CPU time; the SIGPROF
 * handler stores the interrupted stack's return addresses with backtrace()
 * into a buffer allocated up front; the destructor writes /proc/self/maps
 * and one line of hex addresses (innermost first) per sample. report.py
 * turns that into function shares. Needs frame unwinding tables only
 * (.eh_frame), which every Rust and C binary carries.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES (1 << 17)
#define MAX_DEPTH 48
/* backtrace() starts inside the handler and the kernel's signal trampoline. */
#define SKIP 2

static void *(*samples)[MAX_DEPTH];
static unsigned char *depths;
static unsigned taken, dropped;

static void on_sigprof(int sig)
{
    void *frames[MAX_DEPTH + SKIP];
    (void)sig;
    unsigned slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    int n = backtrace(frames, MAX_DEPTH + SKIP) - SKIP;
    if (n < 0)
        n = 0;
    memcpy(samples[slot], frames + SKIP, (size_t)n * sizeof(void *));
    depths[slot] = (unsigned char)n;
}

__attribute__((constructor)) static void sigprof_start(void)
{
    void *warm[4];
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    depths = calloc(MAX_SAMPLES, 1);
    if (!samples || !depths)
        return;
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (!samples || !depths)
        return;
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    unsigned n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %u dropped %u\n", n, dropped);
    for (unsigned i = 0; i < n; i++) {
        for (unsigned d = 0; d < depths[i]; d++)
            fprintf(out, d ? " %lx" : "%lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
