(** The two XPath axes a pattern step can take: parent-child ([/]) and
    ancestor-descendant ([//]). Steps are matched holistically by
    {!Twig_join.path_solutions}; the stack-tree binary join of Al-Khalifa
    et al., which TIMBER offered the paper's cube implementation, is the
    pairwise form of the same containment test. *)

type axis = Child | Descendant
