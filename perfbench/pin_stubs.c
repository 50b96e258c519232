/* Thread CPU affinity for the benchmark: the OCaml Unix library has no
   call for it. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  cpus = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* Pin the calling thread (not the process) to one CPU; false when the
   kernel refuses. */
value perfbench_pin_thread(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
