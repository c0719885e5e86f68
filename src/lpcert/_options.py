"""Choice lists and defaults shared by the compute modules and the CLI.

They live here, in a module that imports nothing, so that building the
command-line parser loads none of the modules that define the checks;
copson, strengthened and hlp take their values from here and export
them as before.
"""

# the four Copson/Leindler branches (copson.check_copson_branch)
BRANCHES = ("copson_prefix", "copson_tail", "leindler_prefix", "leindler_tail")

# the eight strengthened cases and the four closed-form mu choices
KINDS = ("cartlidge", "cartlidge_tail", "dual", "dual_tail",
         "copson_prefix", "copson_tail", "leindler_prefix", "leindler_tail")
MU_CHOICES = ("cartlidge", "copson", "leindler", "dual")

# largest n0 the hlp certificates search by default
N_MAX_DEFAULT = 100_000
