/* wait4(2) for the bench: the exit status and the peak resident set
   of one child, so a build's peak is read from a fresh process. */
#include <sys/types.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <errno.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

CAMLprim value bench_wait_maxrss(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, Val_long(ru.ru_maxrss)); /* kilobytes on Linux */
  CAMLreturn(res);
}
